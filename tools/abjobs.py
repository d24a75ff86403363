"""In-process A/B of one cavmag CLI job between two checkouts.

Each checkout gets one persistent interpreter that imports cavmag from
its own src/ and runs the job with ``cavmag.cli.main`` whenever asked, in
a temporary directory of its own, so relative output paths land there
and each side overwrites its own outputs as a benchmark loop does.  After
one untimed warm-up job per side, the two sides take turns for
``--rounds`` rounds, the first side of each round alternating.  It prints
each side's median job time with its first and third quartiles, and the
rounds the second side won: a median shift smaller than the quartile
spread is not resolved.
``{root}`` in the job stands for each side's checkout.

    python3 tools/abjobs.py --rounds 20 ../parent . -- \\
        map --config {root}/configs/full_device.config --out map.csv --heatmap
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

CHILD = """
import contextlib, io, json, sys, time
sys.path.insert(0, sys.argv[1])
from cavmag.cli import main
for line in sys.stdin:
    with contextlib.redirect_stdout(io.StringIO()):
        start = time.perf_counter()
        code = main(json.loads(line))
        seconds = time.perf_counter() - start
    print(json.dumps([code, seconds]), flush=True)
"""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path, help="first checkout")
    parser.add_argument("b", type=Path, help="second checkout")
    parser.add_argument("job", nargs="+", help="the CLI arguments, after --")
    parser.add_argument("--rounds", type=int, default=20)
    args = parser.parse_args(argv)
    sides, times = [], {"a": [], "b": []}
    with tempfile.TemporaryDirectory() as work:
        for name in times:
            root = getattr(args, name).resolve()
            (Path(work) / name).mkdir()
            child = subprocess.Popen([sys.executable, "-c", CHILD, str(root / "src")], cwd=Path(work) / name,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
            job = json.dumps([part.replace("{root}", str(root)) for part in args.job])
            sides.append((name, child, job))

        def run(name, child, job) -> float:
            child.stdin.write(job + "\n")
            child.stdin.flush()
            code, seconds = json.loads(child.stdout.readline() or "[null, 0]")
            if code != 0:
                raise SystemExit(f"{name}: the job exited {code}")
            return seconds

        try:
            for side in sides:  # warm-up, untimed
                run(*side)
            for round_ in range(args.rounds):
                for side in sides[::-1] if round_ % 2 else sides:
                    times[side[0]].append(run(*side))
        finally:
            for _, child, _ in sides:
                child.stdin.close()
                child.wait()
    for name in times:
        median = statistics.median(times[name])
        q1, _, q3 = statistics.quantiles(times[name], n=4) if args.rounds > 1 else [median] * 3
        print(f"{name} {getattr(args, name)}: median {median:.6f} s, quartiles {q1:.6f} {q3:.6f} s")
    wins = sum(b < a for a, b in zip(times["a"], times["b"]))
    print(f"b won {wins}/{args.rounds} rounds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
