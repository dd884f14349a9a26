"""Batch front-end over the staged pipeline: run scenarios, export CDFs.

Two subcommands, no interactive UI. ``run`` executes a scenario through
the stage chain and writes the artifact CSVs next to a printed per-group
error summary; ``cdf`` reduces an errors CSV to plot-ready
(error_m, cumulative_fraction) rows for any external plotting tool.

Exit codes: 0 on success, 1 for runtime failures (among them a failed
write of an artifact or of ``cdf --out``), 2 for unusable input: a
missing input, an input path that is a directory, a scenario that is not
UTF-8 text or not valid JSON, a scenario the pipeline cannot run, a bad
stage list, or an errors CSV with no data rows, without the ``error_m``
(or ``--group-by``) column, with a row shorter than its header or with
an ``error_m`` that is not a finite number. Each refusal prints one
``error:`` line naming the path or the column. Re-running ``run`` on the
same scenario with the same options rewrites byte-identical artifacts;
repeats fan out to ``repeat_NNN`` subdirectories with consecutive seeds.

``run`` pauses the cyclic garbage collector while its scenarios run and
restores it as it found it. A run's data is acyclic, so reference counting
frees it all; the only cyclic garbage is about 32 objects per run, the
closures of the JSON encoder that indented output uses. Collections would
only walk the run's live records again and again.
"""

import argparse
import csv
import dataclasses
import gc
import math
import os
import sys
from pathlib import Path
from typing import Optional

from . import sim
from .fingerprint import FingerprintDb
from .pipeline import (GROUP_CHOICES, STAGES, StageError, check_stages,
                       empirical_cdf, run_pipeline)


def _fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)


def _print_summary(summary_rows, label: str) -> None:
    if not summary_rows:
        return
    width = max(len("group"), *(len(str(r["group"])) for r in summary_rows))
    print(f"# {label}")
    print(f"{'group':<{width}}  {'n':>4}  {'median_m':>9}  {'p90_m':>9}")
    for row in summary_rows:
        print(f"{row['group']:<{width}}  {row['n_connections']:>4}  "
              f"{row['median_m']:>9.3f}  {row['p90_m']:>9.3f}")


def cmd_run(scenario_path, out_dir, stages=STAGES, seed: Optional[int] = None,
            group_by: str = "imsi", repeat: int = 1) -> int:
    try:
        scenario = sim.load_scenario(scenario_path)
    except FileNotFoundError:
        _fail(f"scenario not found: {scenario_path}")
        return 2
    except IsADirectoryError:
        _fail(f"scenario is a directory: {scenario_path}")
        return 2
    except UnicodeDecodeError:
        _fail(f"scenario is not UTF-8 text: {scenario_path}")
        return 2
    except sim.ScenarioError as exc:
        _fail(str(exc))
        return 2
    try:
        stages = check_stages(stages)
    except StageError as exc:
        _fail(str(exc))
        return 2
    if repeat < 1:
        _fail("repeat must be >= 1")
        return 2
    if seed is not None:
        scenario = dataclasses.replace(scenario, seed=seed)
    out_root = Path(out_dir)
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        if repeat > 1:
            # Each run checks its seed before it writes; the seeds run up
            # to this one, so a refused fan-out writes nothing at all.
            last = scenario.seed + repeat - 1
            dataclasses.replace(scenario, seed=last).validate(
                FingerprintDb.default())
        for i in range(repeat):
            if repeat == 1:
                run_dir, run = out_root, scenario
            else:
                run_dir = out_root / f"repeat_{i:03d}"
                run = dataclasses.replace(scenario, seed=scenario.seed + i)
            ctx = run_pipeline(run, stages, out_dir=run_dir,
                               group_by=group_by)
            _print_summary(ctx.summary_rows,
                           f"{run_dir} seed={run.seed} "
                           f"stages={','.join(stages)}")
            del ctx  # so the next run starts with this one's data freed
    except (sim.ScenarioError, StageError) as exc:
        _fail(str(exc))
        return 2
    except OSError as exc:
        _fail(str(exc))
        return 1
    finally:
        if gc_was_enabled:
            gc.enable()
    return 0


def _error_m(errors_csv, i: int, row: dict) -> float:
    """Data row ``i``'s finite ``error_m``, else ValueError naming the
    file: also for a row shorter than the header, filled with None."""
    if None in row.values():
        raise ValueError(f"data row {i} of {errors_csv} has fewer cells "
                         f"than the header")
    try:
        value = float(row["error_m"])
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ValueError(f"data row {i} of {errors_csv}: error_m "
                         f"{row['error_m']!r} is not a finite number")
    return value


def cmd_cdf(errors_csv, group_by: Optional[str] = None) -> list:
    """Reduce an errors CSV to sorted (error_m, cumulative_fraction) rows.

    With ``group_by`` set to a column name, one CDF per distinct value is
    emitted and each output row gains that leading group column. Raises
    ValueError on an empty input, a missing column, a row with fewer cells
    than the header, or an ``error_m`` that is not a finite number.
    """
    with open(errors_csv, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        raise ValueError(f"no data rows in {errors_csv}")
    for column in ("error_m", group_by):
        if column is not None and column not in rows[0]:
            raise ValueError(f"no column {column!r} in {errors_csv}")
    errors = [_error_m(errors_csv, i, row) for i, row in enumerate(rows, 1)]
    out = []
    if group_by is None:
        for error_m, frac in empirical_cdf(errors):
            out.append({"error_m": error_m, "cumulative_fraction": frac})
        return out
    groups: dict = {}
    for row, error_m in zip(rows, errors):
        groups.setdefault(row[group_by], []).append(error_m)
    for key in sorted(groups):
        for error_m, frac in empirical_cdf(groups[key]):
            out.append({group_by: key, "error_m": error_m,
                        "cumulative_fraction": frac})
    return out


def _write_cdf(rows, destination) -> None:
    writer = csv.DictWriter(destination, fieldnames=list(rows[0]))
    writer.writeheader()
    writer.writerows(rows)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="tatrack", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario through the stages")
    run_p.add_argument("--scenario", required=True, help="scenario JSON path")
    run_p.add_argument("--out", required=True, help="artifact directory")
    run_p.add_argument("--stages", default=",".join(STAGES),
                       help="comma-separated stage list "
                            f"(default: {','.join(STAGES)})")
    run_p.add_argument("--seed", type=int, default=None,
                       help="override the scenario seed")
    run_p.add_argument("--group-by", default="imsi", choices=GROUP_CHOICES,
                       help="summary grouping (default: imsi)")
    run_p.add_argument("--repeat", type=int, default=1,
                       help="fan out N runs with consecutive seeds")

    cdf_p = sub.add_parser("cdf", help="empirical CDF from an errors CSV")
    cdf_p.add_argument("errors_csv", help="errors.csv from a run")
    cdf_p.add_argument("--group-by", default=None,
                       help="emit one CDF per value of this column")
    cdf_p.add_argument("--out", default=None,
                       help="output CSV path (default: stdout)")

    args = parser.parse_args(argv)
    if args.command == "run":
        return cmd_run(args.scenario, args.out, args.stages.split(","),
                       seed=args.seed, group_by=args.group_by,
                       repeat=args.repeat)
    try:
        rows = cmd_cdf(args.errors_csv, group_by=args.group_by)
    except FileNotFoundError:
        _fail(f"errors CSV not found: {args.errors_csv}")
        return 2
    except IsADirectoryError:
        _fail(f"errors CSV is a directory: {args.errors_csv}")
        return 2
    except ValueError as exc:
        _fail(str(exc))
        return 2
    if args.out is None:
        try:
            _write_cdf(rows, sys.stdout)
        except BrokenPipeError:
            # Downstream consumer (head, less) closed the pipe; park stdout
            # on devnull so the interpreter's exit flush stays quiet.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    else:
        try:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                _write_cdf(rows, fh)
        except OSError as exc:
            _fail(f"cannot write {args.out}: {exc.strerror or exc}")
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
