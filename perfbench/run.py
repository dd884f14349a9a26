"""Benchmark command for tatrack.

    python3 perfbench/run.py --workload replication --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout. The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer ones
with ``--trace 1``. Artifacts and spans go to ``.perfbench_out/`` under the
checkout. See README.md in this directory for the workloads and metrics.
"""

import os

# One thread for every numerical library, set before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("replication", "crowd", "drive")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: set up one workload in this fresh process, print the
    # monotonic clock when the first repetition could begin, and exit.
    parser.add_argument("--setup-only", metavar="DIR",
                        help=argparse.SUPPRESS)
    # Internal: set up, make one repetition, print the process's peak
    # resident set size in MB, and exit.
    parser.add_argument("--peak-rss", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**40:
        parser.error("--seed must be in [0, 2**40)")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "tatrack" / "__init__.py").is_file():
        print(f"error: no tatrack sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench import bench

    try:
        if args.setup_only:
            bench.prepare(args.workload, args.seed, Path(args.setup_only))
            print(repr(time.monotonic()))
            return 0
        if args.peak_rss:
            print(repr(bench.peak_rss_mb(args.workload, args.seed,
                                         Path(args.peak_rss))))
            return 0
        result = bench.run(args.workload, args.seed, args.seconds,
                           bool(args.trace))
    except bench.BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
