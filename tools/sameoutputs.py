"""Compare every output of cavmag CLI jobs between two checkouts.

Each checkout's own code generates the benchmark inputs
(``perfbench/gen_inputs.py``) for each ``--seeds`` seed, and then runs
``kittel``, ``map --heatmap``, ``synth --heatmap``, ``branches``, ``fit``
and ``thickness --maps-dir`` on every shipped config and every generated
config, each job a fresh ``python -m cavmag`` process in a temporary
directory of its own.  ``fit`` reads the generated data file where the benchmark does,
and otherwise the map the same config's ``synth`` job wrote.  The two
sides run job by job, and each job compares exit codes, stdout, stderr
(with the checkout and work paths replaced by ``{root}`` and ``{work}``)
and every file the job left.  Each difference is printed with its job and
first differing line; the last line is a summary, and the exit code is 1
when anything differs.

    python3 tools/sameoutputs.py ../parent .
    python3 tools/sameoutputs.py --seeds 1 . .
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from itertools import zip_longest
from pathlib import Path

WORKLOADS = ("map_full", "fit_map", "branches_thickness")
CASE_JOBS = (  # {config} and {data} are filled in per case
    ("kittel", ["kittel", "--config", "{config}", "--out", "kittel.csv"]),
    ("map", ["map", "--config", "{config}", "--out", "map.csv", "--heatmap"]),
    ("synth", ["synth", "--config", "{config}", "--out", "synth.csv", "--heatmap"]),
    ("branches", ["branches", "--config", "{config}", "--out", "branches.csv"]),
    ("fit", ["fit", "--config", "{config}", "--data", "{data}", "--out", "fit.txt"]),
    ("thickness", ["thickness", "--config", "{config}", "--out", "thickness.csv",
                   "--maps-dir", "maps"]),
)


class Side:
    """One checkout and its work directory."""

    def __init__(self, root: Path, work: Path):
        self.root, self.work = root.resolve(), work
        self.env = dict(os.environ, PYTHONPATH=str(self.root / "src"))

    def fill(self, text: str) -> str:
        return text.replace("{root}", str(self.root)).replace("{work}", str(self.work))

    def run(self, argv: list[str], cwd: str) -> dict:
        """Exit code, stdout, stderr and the files left in cwd of one job."""
        directory = Path(self.fill(cwd))
        directory.mkdir(parents=True)
        proc = subprocess.run([self.fill(part) for part in argv], cwd=directory, env=self.env,
                              capture_output=True)
        outcome = {"exit code": str(proc.returncode).encode(),
                   "stdout": self.unfill(proc.stdout), "stderr": self.unfill(proc.stderr)}
        for path in sorted(p for p in directory.rglob("*") if p.is_file()):
            outcome[f"file {path.relative_to(directory)}"] = path.read_bytes()
        return outcome

    def unfill(self, text: bytes) -> bytes:
        for path, name in sorted(((self.work, b"{work}"), (self.root, b"{root}")),
                                 key=lambda item: -len(str(item[0]))):
            text = text.replace(str(path).encode(), name)
        return text


def first_difference(a: bytes | None, b: bytes | None) -> str:
    if a is None or b is None:
        return "only in a" if b is None else "only in b"
    for number, (x, y) in enumerate(zip_longest(a.splitlines(), b.splitlines()), 1):
        if x != y:
            return f"line {number}: {show(x)} | {show(y)}"
    return "same lines, different line endings"


def show(line: bytes | None, width: int = 80) -> str:
    if line is None:
        return "<end of file>"
    text = line.decode("utf-8", "replace")
    return repr(text if len(text) <= width else text[:width] + "...")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path, help="first checkout")
    parser.add_argument("b", type=Path, help="second checkout")
    parser.add_argument("--seeds", type=lambda text: [int(part) for part in text.split(",")],
                        default=[1, 7, 701], help="benchmark input seeds (default: 1,7,701)")
    args = parser.parse_args(argv)
    counts = {"jobs": 0, "outputs": 0, "differences": 0}
    with tempfile.TemporaryDirectory() as tmp:
        sides = [Side(root, Path(tmp) / name) for name, root in (("a", args.a), ("b", args.b))]

        def job(name: str, argv: list[str], cwd: str) -> None:
            outcomes = [side.run(argv, cwd) for side in sides]
            counts["jobs"] += 1
            for key in sorted(set(outcomes[0]) | set(outcomes[1])):
                counts["outputs"] += 1
                a, b = (outcome.get(key) for outcome in outcomes)
                if a != b:
                    counts["differences"] += 1
                    print(f"DIFF {name}: {key}: {first_difference(a, b)}", flush=True)

        cases = [(f"configs/{name}", f"{{root}}/configs/{name}", None) for name in sorted(
            {p.name for side in sides for p in (side.root / "configs").glob("*.config")})]
        for seed in args.seeds:
            for workload in WORKLOADS:
                inputs = f"inputs/{workload}-{seed}"
                job(inputs, [sys.executable, "{root}/perfbench/gen_inputs.py", "--workload",
                             workload, "--seed", str(seed), "--out", "."], f"{{work}}/{inputs}")
                files = json.loads((sides[0].work / inputs / "truth.json").read_text())["files"]
                fit_config = files.get("fit_config", files["config"])
                for name in sorted({files["config"], fit_config}):
                    data = f"{{work}}/{inputs}/{files['data']}" if name == fit_config and "data" in files else None
                    cases.append((f"{inputs}/{name}", f"{{work}}/{inputs}/{name}", data))
        for case, config, data in cases:
            cwd = f"{{work}}/jobs/{case}"
            data = data or f"{cwd}/synth/synth.csv"
            for name, argv in CASE_JOBS:
                filled = [part.replace("{config}", config).replace("{data}", data) for part in argv]
                job(f"{case} {name}", [sys.executable, "-m", "cavmag", *filled], f"{cwd}/{name}")
            for side in sides:  # a full-grid case leaves about 30 MB
                shutil.rmtree(side.fill(cwd))
    print(f"sameoutputs: {counts['jobs']} jobs, {counts['outputs']} outputs compared, "
          f"{counts['differences']} differences")
    return 1 if counts["differences"] else 0


if __name__ == "__main__":
    sys.exit(main())
