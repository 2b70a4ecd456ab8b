"""relkin's benchmark: one process per workload, BLAS pinned to one thread.

    python3 bench/run.py --workload network_n12 --seed 1 --seconds 20 --trace 0
    python3 bench/run.py                      # every workload, default seed

Workloads (their reasons are next to their definitions in workloads.py):
    mc_suite     `relkin experiment --check` on the default suite, 200 trials
    network_n12  one random 12-node network through estimate, solve and crb
    large_n48    one random 48-node network through solve and the position/velocity CRBs

--trace 0 prints the end-to-end metrics named in BENCHMARK.json; --trace 1
traces relkin's public functions on every other op and prints the per-layer
metrics.  The last stdout line of a single-workload run is one JSON object
with correct/attempted/failed/metrics.  Run records, with the environment,
go to bench/out/.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("mc_suite", "network_n12", "large_n48")
# Read by the BLAS library when numpy loads, so set before the workload starts.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
TIMEOUT_S = 175


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    env = {**os.environ, **BLAS_ENV}
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        try:
            proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                                  timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print(f"{workload}: no result within {TIMEOUT_S} s", file=sys.stderr)
            return 3
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            print(f"{workload}: exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
