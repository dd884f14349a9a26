"""Print the SHA-256 digest of every artifact a pipeline run writes.

Usage:
    PYTHONPATH=src python3 tools/artifact_digests.py scenarios/replication.json
    PYTHONPATH=src python3 tools/artifact_digests.py SCENARIO --seed 0 1 7 \\
        --stages simulate,probe
    PYTHONPATH=src python3 tools/artifact_digests.py --workload drive \\
        --seed 0 1 2 7

Each ``--seed`` value replaces the scenario's own seed for one run; without
``--seed`` the scenario's seed is used. With ``--workload`` the scenario of
each run is that benchmark workload's layout (``perfbench/workloads.py``)
made from the run's seed, which is then also the scenario seed, as in a
benchmark run; without ``--seed`` that seed is 0. Every run writes its
artifacts to a temporary directory through ``run_pipeline(out_dir=...)``,
and the tool prints one ``<sha256>  <seed>/<file>`` line per artifact,
sorted by seed and then file name. It writes to stdout only. Two checkouts
print the same lines exactly when their artifacts are byte-identical, so a
refactor's "byte-identical" claim is one ``diff`` of this output from both.

Exit codes: 0 on success, 2 when the scenario or stage list cannot be run.
"""

import argparse
import dataclasses
import hashlib
import sys
import tempfile
from pathlib import Path

from tatrack import sim
from tatrack.pipeline import STAGES, StageError, check_stages, run_pipeline

#: Benchmark workloads whose layout is made from a seed.
WORKLOADS = ("crowd", "drive")


def _run_digests(runs, stages) -> list:
    """Digest lines of each ``(seed, scenario)`` run, in the given order."""
    lines = []
    for seed, scenario in runs:
        with tempfile.TemporaryDirectory() as tmp:
            run_pipeline(scenario, stages, out_dir=tmp)
            for path in sorted(Path(tmp).iterdir()):
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
                lines.append(f"{digest}  {seed}/{path.name}")
    return lines


def digest_lines(scenario: sim.Scenario, seeds=None, stages=STAGES) -> list:
    """``<sha256>  <seed>/<file>`` for each artifact of each seed's run."""
    return _run_digests(
        ((seed, dataclasses.replace(scenario, seed=seed))
         for seed in (sorted(set(seeds)) if seeds else (scenario.seed,))),
        stages)


def workload_digest_lines(workload: str, seeds=None, stages=STAGES) -> list:
    """Digest lines of a benchmark workload, its layout made per seed."""
    root = str(Path(__file__).resolve().parent.parent)
    if root not in sys.path:
        sys.path.insert(0, root)
    from perfbench import workloads

    make = getattr(workloads, workload)
    return _run_digests(
        ((seed, sim.scenario_from_dict(make(seed)))
         for seed in (sorted(set(seeds)) if seeds else (0,))), stages)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("scenario", nargs="?", help="scenario JSON path")
    source.add_argument("--workload", choices=WORKLOADS,
                        help="a benchmark workload's layout instead of a "
                             "scenario file")
    parser.add_argument("--seed", type=int, nargs="+", default=None,
                        help="seeds to run (default: the scenario's own)")
    parser.add_argument("--stages", default=",".join(STAGES),
                        help="comma-separated stage list "
                             f"(default: {','.join(STAGES)})")
    args = parser.parse_args(argv)
    try:
        stages = check_stages(args.stages.split(","))
        if args.workload:
            lines = workload_digest_lines(args.workload, args.seed, stages)
        else:
            lines = digest_lines(sim.load_scenario(args.scenario), args.seed,
                                 stages)
    except (OSError, sim.ScenarioError, StageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
