"""Minor page faults per job of the cavmag benchmark, run by run.

Runs the checkout's own perfbench/run.py, unmodified, --runs times for
one workload and seed, and prints per run the job_s_p50 it reports and
the minor page faults of the run (from RUSAGE_CHILDREN, so set-up and
input generation included) per attempted job.  Python's hash seed
changes from run to run, so one run may land in a mode of the allocator
that re-faults memory on every job and the next may not; the per-run
lines show that where a median would hide it.

    python3 tools/faults.py --workload fit_map --seed 7 --runs 3 --seconds 30
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--runs", type=int, default=3)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--root", type=Path, default=ROOT, help="checkout to benchmark")
    args = parser.parse_args(argv)
    command = [sys.executable, str(args.root / "perfbench" / "run.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds)]
    for run in range(1, args.runs + 1):
        before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
        done = subprocess.run(command, cwd=args.root, capture_output=True, text=True)
        faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - before
        if done.returncode != 0 or not done.stdout.strip():
            print(f"run {run}: perfbench exited {done.returncode}: {done.stderr.strip()[-300:]}")
            return 1
        result = json.loads(done.stdout.strip().splitlines()[-1])
        p50 = result["metrics"]["job_s_p50"]["value"]
        print(f"run {run}: job_s_p50 {p50:.5f} s, {faults / result['attempted']:.0f} minor faults "
              f"per attempted job ({result['attempted']} jobs, {result['failed']} failed)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
