"""Benchmark of the cavmag command line, end to end and layer by layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload map_full --seed 1 --seconds 30 --trace 0

One run is one process and one closed-loop client: the inputs for the
seed are generated in a child process, set-up time is measured in fresh
child interpreters, and then ``cavmag.cli.main`` runs one job after
another in this process for ``--seconds`` seconds, each job's outputs
checked after its timed region.  The first job warms caches and lazy
set-up; it is checked and counted as attempted but not timed.

Times are reported at a reference host speed.  On a shared host the
speed of the same code drifts by tens of percent from one second to the
next, so a fixed pure-Python loop is timed before and after each timed
interval and the interval is scaled by ``REFERENCE_LOOP_S`` over the
mean of the two loop times.  The unscaled medians are printed as well.

``--trace 0`` reports the end-to-end metrics (set-up time, median and
tail job time, peak resident memory).  ``--trace 1`` alternates
untraced jobs with jobs traced by ``spans.Tracer`` and reports each
layer's self time, call counts and work counters per traced job, plus
the tracing overhead; its spans are written to
``.perfbench/trace-<workload>.json``.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.

The program is imported from ``src/`` of the checkout this file sits
in; without it the run exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOAD_NAMES = ("map_full", "fit_map", "branches_thickness")
SETUP_SAMPLES = 7
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
TAIL_BEYOND = 10  # jobs that must lie beyond the reported tail percentile
LOOP_COUNT = 250_000
LOOP_REPEATS = 5
# Speed-loop time in the fast state (10th percentile over 20 s) of the
# 2-core x86-64 host the baseline was recorded on, CPython 3.11.7:
# scaled times read as seconds on that host when it is not contended.
REFERENCE_LOOP_S = 0.014


def limit_threads() -> None:
    """Cap BLAS/OpenMP pools at the cores this process may use.

    Must run before numpy is imported, in this process and its children.
    """
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        current = os.environ.get(var, "")
        value = int(current) if current.isdigit() and 0 < int(current) < nproc else nproc
        os.environ[var] = str(value)


def loop_seconds() -> float:
    """Median time of a fixed pure-Python loop: the host's current speed."""
    samples = []
    for _ in range(LOOP_REPEATS):
        start = time.perf_counter()
        total = 0
        for i in range(LOOP_COUNT):
            total += i * i
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


class SpeedScaledTimer:
    """Times intervals and scales each to the reference host speed."""

    def __init__(self):
        self.before = loop_seconds()

    def scale(self, raw: float) -> float:
        """Scale the interval that ended just now; call right after it ends."""
        after = loop_seconds()
        speed = (self.before + after) / 2.0
        self.before = after
        return raw * REFERENCE_LOOP_S / speed


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def generate(workload: str, seed: int, work: Path) -> dict:
    subprocess.run([sys.executable, str(HERE / "gen_inputs.py"), "--workload", workload,
                    "--seed", str(seed), "--out", str(work)],
                   env=child_env(), check=True, timeout=120)
    return json.loads((work / "truth.json").read_text(encoding="utf-8"))


def measure_setup(config: Path) -> tuple[float, float]:
    """Median (scaled, raw) seconds for a fresh interpreter to import
    cavmag.cli and load the config."""
    command = [sys.executable, "-c",
               "import sys, cavmag.cli; cavmag.cli.load_config(sys.argv[1])", str(config)]
    env = child_env()
    subprocess.run(command, env=env, check=True, timeout=60)  # fills the OS file cache
    timer = SpeedScaledTimer()
    raw, scaled = [], []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        subprocess.run(command, env=env, check=True, timeout=60)
        raw.append(time.perf_counter() - start)
        scaled.append(timer.scale(raw[-1]))
    return statistics.median(scaled), statistics.median(raw)


def run_job(main, argvs) -> list[tuple[int, str]]:
    """(exit code, stdout) of each CLI call; stdout is captured as a terminal would."""
    outputs = []
    for argv in argvs:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                rc = main(argv)
            except SystemExit as exc:  # argparse rejects the arguments
                rc = exc.code if isinstance(exc.code, int) else 1
        if rc != 0:
            print(f"call {argv[0]} exited {rc}: {stderr.getvalue().strip()}", file=sys.stderr)
        outputs.append((rc, stdout.getvalue()))
    return outputs


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND jobs beyond it.

    Below 2 * TAIL_BEYOND + 1 jobs no such percentile lies above the
    median, and the median is reported.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n - TAIL_BEYOND > n / 2:
        return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n
    return statistics.median(ordered), 50.0


def median(values) -> float | None:
    return statistics.median(values) if values else None


def measure(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    manifest = generate(workload, seed, work)
    files = manifest["files"]
    setup = None if trace else measure_setup(work / files["config"])

    import cavmag.cli
    import numpy

    import spans
    from workloads import WORKLOADS, Checker, fit_iterations

    if Path(cavmag.cli.__file__).resolve().parent != SRC / "cavmag":
        raise RuntimeError(f"cavmag imported from {cavmag.cli.__file__}, not {SRC}")
    checker = Checker(workload, work, manifest)
    argvs = WORKLOADS[workload].jobs(work, files)
    tracer = spans.Tracer()
    scaled = {False: [], True: []}  # traced? -> scaled job seconds
    raw = []
    layers = []
    errors = []
    attempted = failed = 0
    deadline = None
    timer = SpeedScaledTimer()
    job = 0
    while (deadline is None or time.perf_counter() < deadline
           or ((not scaled[False] or (trace and not scaled[True])) and failed < 3)):
        traced = trace and job % 2 == 0 and job > 0
        if traced:
            tracer.install()
        job_errors = []
        start = time.perf_counter()
        try:
            with tracer.job_span(job) if traced else contextlib.nullcontext():
                outputs = run_job(cavmag.cli.main, argvs)
        except Exception:  # a crash fails the job; the run goes on
            outputs = None
            job_errors.append(traceback.format_exc())
        elapsed = time.perf_counter() - start
        factor = timer.scale(elapsed) / elapsed  # to the reference host speed
        if traced:
            tracer.restore()
        if outputs is not None:
            job_errors = checker.check(job, outputs)
        attempted += 1
        if job_errors:
            failed += 1
            errors.extend(f"job {job}: {e}" for e in job_errors)
        elif job > 0:
            scaled[traced].append(elapsed * factor)
            if traced:
                row = spans.job_layers([s for s in tracer.spans if s[2] == job],
                                       tracer.counters[job])
                if abs(sum(v for k, v in row.items() if k.endswith(".s")) - row["job_s"]) > 1e-6:
                    errors.append(f"job {job}: layer self times do not sum to the job time")
                row = {k: v * factor if k.endswith(".s") else v for k, v in row.items()}
                row["fitting.iterations"] = fit_iterations(outputs)
                layers.append(row)
            else:
                raw.append(elapsed)
        if deadline is None:
            deadline = time.perf_counter() + seconds
        job += 1

    for message in errors[:20]:
        print(f"check failed: {message}", file=sys.stderr)
    env = {"python": platform.python_version(), "numpy": numpy.__version__,
           "nproc": len(os.sched_getaffinity(0)),
           "threads": {var: int(os.environ[var]) for var in THREAD_VARS}}
    result = {"env": env, "attempted": attempted, "failed": failed,
              "correct": not errors, "jobs": len(scaled[False])}
    if not trace:
        value, percentile = tail(scaled[False]) if scaled[False] else (None, 0.0)
        result["metrics"] = {
            "setup_s": (setup[0], "s"),
            "job_s_p50": (median(scaled[False]), "s"),
            "job_s_tail": (value, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, "MB"),
        }
        result["notes"] = [
            f"job_s_tail is p{percentile:.1f} of {len(scaled[False])} timed jobs",
            f"unscaled medians: setup {setup[1]!r} s, job {median(raw)!r} s",
        ]
        return result

    metrics = {}
    for key in layers[0] if layers else ():
        if key != "job_s":
            unit = "s" if key.endswith(".s") else "B" if key.endswith("bytes") else "count"
            metrics[key] = (statistics.fmean(row[key] for row in layers), unit)
    traced_p50, untraced_p50 = median(scaled[True]), median(scaled[False])
    metrics["trace.job_s_p50"] = (traced_p50, "s")
    metrics["trace.untraced_job_s_p50"] = (untraced_p50, "s")
    metrics["trace.overhead_s"] = (
        traced_p50 - untraced_p50 if layers and scaled[False] else None, "s")
    with open(OUT / f"trace-{workload}.json", "w", encoding="utf-8") as handle:
        json.dump({"workload": workload, "seed": seed, "env": env,
                   "span_fields": ["id", "parent", "job", "name", "start", "end"],
                   "spans": tracer.spans, "per_job": layers}, handle)
    result["metrics"] = metrics
    result["notes"] = [f"{len(layers)} traced and {len(scaled[False])} untraced jobs"]
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="cavmag CLI benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cavmag" / "cli.py").is_file():
        print(f"perfbench: no cavmag sources at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    limit_threads()
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    from workloads import WORKLOADS

    env = result["env"]
    print(f"workload {args.workload} seed {args.seed}: {WORKLOADS[args.workload].why}")
    print(f"env: python {env['python']} numpy {env['numpy']} nproc {env['nproc']} "
          f"blas/openmp threads {env['threads']['OMP_NUM_THREADS']}")
    for name, (value, unit) in result["metrics"].items():
        print(f"{name} {value!r} {unit}")
    print(f"error_rate {result['failed'] / result['attempted']!r} "
          f"({result['failed']} of {result['attempted']} jobs failed)")
    for note in result["notes"]:
        print(note)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
