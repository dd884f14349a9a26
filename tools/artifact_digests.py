"""Print the SHA-256 digest of every artifact a pipeline run writes.

Usage:
    PYTHONPATH=src python3 tools/artifact_digests.py scenarios/replication.json
    PYTHONPATH=src python3 tools/artifact_digests.py SCENARIO --seed 0 1 7 \\
        --stages simulate,probe

Each ``--seed`` value replaces the scenario's own seed for one run; without
``--seed`` the scenario's seed is used. Every run writes its artifacts to a
temporary directory through ``run_pipeline(out_dir=...)``, and the tool
prints one ``<sha256>  <seed>/<file>`` line per artifact, sorted by seed
and then file name. It writes to stdout only. Two checkouts print the same
lines exactly when their artifacts are byte-identical, so a refactor's
"byte-identical" claim is one ``diff`` of this output from both.

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


def digest_lines(scenario: sim.Scenario, seeds=None, stages=STAGES) -> list:
    """``<sha256>  <seed>/<file>`` for each artifact of each seed's run."""
    lines = []
    for seed in sorted(set(seeds)) if seeds else (scenario.seed,):
        with tempfile.TemporaryDirectory() as tmp:
            run_pipeline(dataclasses.replace(scenario, seed=seed), stages,
                         out_dir=tmp)
            for path in sorted(Path(tmp).iterdir()):
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
                lines.append(f"{digest}  {seed}/{path.name}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("scenario", help="scenario JSON path")
    parser.add_argument("--seed", type=int, nargs="+", default=None,
                        help="seeds to run (default: the scenario's own)")
    parser.add_argument("--stages", default=",".join(STAGES),
                        help="comma-separated stage list "
                             f"(default: {','.join(STAGES)})")
    args = parser.parse_args(argv)
    try:
        scenario = sim.load_scenario(args.scenario)
        stages = check_stages(s.strip() for s in args.stages.split(",") if s)
        lines = digest_lines(scenario, args.seed, stages)
    except (OSError, sim.ScenarioError, StageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
