"""Benchmark entry point: one workload, one seed, one result line.

    python3 perfbench/run.py --workload c6-train --seed 1 --seconds 10 --trace 0

Run from the repository root.  With --trace 0 the last stdout line holds
the end-to-end metrics; with --trace 1 it holds the per-module metrics of
a traced run.  The line before it is a JSON record of the run environment,
the workload's inputs and what was checked.  Exits 2 when the program's
sources are missing and 1 on a crash; a run that completes exits 0 and
reports failed operations in the result line.
"""

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

# One BLAS thread, set before numpy loads, and the process pinned to one
# CPU: the speed probes (tracing.speed_probe) then measure the core that
# runs all of the program's work.  With two BLAS threads the matmuls also
# run on a second core whose speed, which changes on its own schedule, no
# probe sees.
BLAS_THREADS = 1


def pin_to_one_cpu():
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def parse_args(argv, workloads):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1 or args.seed < 0:
        ap.error("--seconds must be >= 1 and --seed >= 0")
    return args


def main(argv=None):
    if not os.path.isfile(os.path.join(SRC, "ibpdgm", "__init__.py")):
        print(f"benchmark: program sources not found under {SRC}", file=sys.stderr)
        return 2
    pin_to_one_cpu()
    sys.path[:0] = [SRC, HERE]
    import harness  # imports numpy, so only after the pin

    args = parse_args(argv, harness.WORKLOADS)
    result, record = harness.run(harness.WORKLOADS[args.workload], args.seed,
                                 args.seconds, args.trace, OUT, BLAS_THREADS)
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
