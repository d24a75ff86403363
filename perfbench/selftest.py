"""Self-test of the benchmark itself, run from the root of a checkout:

    python3 perfbench/selftest.py

1. Self-time arithmetic on a synthetic span nest.
2. Job stdout is byte-identical with tracing on and off, on every
   workload, and tracing restores every wrapped function.
3. Smoke: ``run.py`` in both modes runs one timed job per workload with
   zero failures and reports exactly the metrics BENCHMARK.json names.

Exits non-zero on the first failed expectation.
"""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run
from run import WORKLOAD_NAMES


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def test_self_times() -> None:
    import spans

    nest = [
        [0, None, 7, spans.ROOT, 0.0, 10.0],
        [1, 0, 7, "fitting.fit_map", 1.0, 4.0],
        [2, 1, 7, "sweep.compute_map", 2.0, 3.0],
        [3, 0, 7, "dataio.read_spectrum_csv", 5.0, 9.0],
    ]
    expect(spans.self_times(nest) == {0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0},
           f"self times {spans.self_times(nest)}")
    row = spans.job_layers(nest, spans.Counter())
    expect(row["cli.self.s"] == 3.0 and row["fitting.fit_map.s"] == 2.0
           and row["sweep.compute_map.s"] == 1.0 and row["dataio.read_spectrum_csv.s"] == 4.0,
           f"layer self times {row}")
    expect(sum(v for k, v in row.items() if k.endswith(".s")) == row["job_s"] == 10.0,
           "self times do not sum to the job time")
    expect(row["fitting.objective_evals"] == 1 and row["sweep.compute_map.calls"] == 1,
           "objective evaluations miscounted")


def test_trace_keeps_stdout(work: Path) -> None:
    import cavmag.cli
    import gen_inputs
    import spans
    from workloads import WORKLOADS, Checker

    modules = [importlib.import_module(name) for name in spans.PATCHED_MODULES]
    originals = [(module, attr, fn) for module in modules
                 for attr, fn in vars(module).items() if callable(fn)]
    for name in WORKLOAD_NAMES:
        out = work / name
        out.mkdir()
        manifest = gen_inputs.write_inputs(name, 0, out)
        argvs = WORKLOADS[name].jobs(out, manifest["files"])
        plain = run.run_job(cavmag.cli.main, argvs)
        tracer = spans.Tracer()
        tracer.install()
        try:
            with tracer.job_span(0):
                traced = run.run_job(cavmag.cli.main, argvs)
        finally:
            tracer.restore()
        expect(all(getattr(module, attr) is fn for module, attr, fn in originals),
               "a wrapped function was not restored")
        expect(traced == plain, f"{name}: stdout differs with tracing on")
        expect(Checker(name, out, manifest).check(0, plain) == [], f"{name}: checks failed")
        expect(len(tracer.spans) > 1, f"{name}: no layer spans recorded")


def test_smoke() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        names = {metric["name"] for metric in spec[section]}
        for name in WORKLOAD_NAMES:
            proc = subprocess.run(
                [sys.executable, str(run.HERE / "run.py"), "--workload", name, "--seed", "0",
                 "--seconds", "0", "--trace", str(trace)],
                capture_output=True, text=True, timeout=180, cwd=run.ROOT)
            expect(proc.returncode == 0, f"{name} trace {trace}: exit {proc.returncode}\n{proc.stderr}")
            result = json.loads(proc.stdout.splitlines()[-1])
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 2,
                   f"{name} trace {trace}: {result}")
            expect(set(result["metrics"]) == names,
                   f"{name} trace {trace}: metrics {sorted(set(result['metrics']) ^ names)} "
                   "disagree with BENCHMARK.json")


def main() -> int:
    run.limit_threads()
    sys.path.insert(0, str(run.SRC))
    run.OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.OUT))
    try:
        test_self_times()
        test_trace_keeps_stdout(work)
        test_smoke()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("perfbench selftest: self times, traced stdout and smoke runs pass")
    return 0


if __name__ == "__main__":
    sys.exit(main())
