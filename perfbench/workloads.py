"""The three benchmark workloads: CLI job, output checks and rationale.

A job is one back-to-back sequence of ``cavmag.cli.main`` calls on the
inputs that ``gen_inputs`` wrote for the run's seed.  Every job's
outputs are checked after its timed region; a job fails on a non-zero
exit code (exit 4, "fit did not converge", included) or on any failed
check.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from cavmag.config import load_config
from cavmag.sweep import instantiate
from cavmag.synth import s21_sum_oracle


@dataclass(frozen=True)
class Workload:
    name: str
    why: str

    def jobs(self, work: Path, files: dict) -> list[list[str]]:
        """argv of each CLI call of one job."""
        if self.name == "map_full":
            return [["map", "--config", str(work / files["config"]),
                     "--out", str(work / "map_out.csv"), "--heatmap"]]
        if self.name == "fit_map":
            return [["fit", "--config", str(work / files["config"]),
                     "--data", str(work / files["data"])]]
        return [["thickness", "--config", str(work / files["config"]),
                 "--out", str(work / "thickness_out.csv")],
                ["fit", "--config", str(work / files["fit_config"]),
                 "--data", str(work / files["data"])]]


WORKLOADS = {w.name: w for w in (
    Workload("map_full",
             "full-device 501x401 map plus heatmap: the largest computation users run; "
             "time splits between the cond guard, the batched solve and CSV writing"),
    Workload("fit_map",
             "map fit of two couplings from +-50% starts on a noisy two-window 62x101 map: "
             "~95 small compute_map calls, so per-call overhead and the guard dominate"),
    Workload("branches_thickness",
             "thickness series then a branch fit on a 164k-row noise-free map: eigenvalue "
             "route, CSV read, ridges; never calls compute_map"),
)}


def _relative(value: float, truth: float) -> float:
    return abs(value - truth) / abs(truth)


def _fitted(stdout: str) -> dict[str, float]:
    values = {}
    for line in stdout.splitlines():
        if line.startswith("parameter: "):
            parts = line.split()
            values[parts[1]] = float(parts[3])
    return values


def fit_iterations(outputs) -> int:
    """Optimizer iterations reported by every fit call of a job."""
    return sum(int(line.split()[1]) for _rc, stdout in outputs
               for line in stdout.splitlines() if line.startswith("iterations: "))


def _check_fit(stdout: str, truth: dict, tolerance: float) -> list[str]:
    errors = []
    if "converged: true" not in stdout.splitlines():
        errors.append("fit did not report convergence")
    fitted = _fitted(stdout)
    for name, key in (("g:py:cpw", "g_py_cpw"), ("g:cpw:yig", "g_cpw_yig")):
        if name not in fitted:
            errors.append(f"fit printed no value for {name}")
        elif _relative(fitted[name], truth[key]) > tolerance:
            errors.append(f"{name} = {fitted[name]!r}, generated {truth[key]!r} "
                          f"(more than {tolerance:.0%} off)")
    return errors


class Checker:
    """Output checks of one run; state carried between jobs lives here."""

    SAMPLES = 128  # grid points of each written map compared with the oracle
    ORACLE_RTOL = 1e-10  # acceptance criterion 1's agreement

    def __init__(self, workload: str, work: Path, manifest: dict):
        self.workload = workload
        self.work = work
        self.truth = manifest["truth"]
        self.files = manifest["files"]
        self.map_digest: str | None = None

    def check(self, job_index: int, outputs) -> list[str]:
        """Errors of one job given its [(exit code, stdout)] per CLI call."""
        errors = [f"call {k} exited with code {rc}" for k, (rc, _) in enumerate(outputs) if rc != 0]
        if errors:
            return errors
        if self.workload == "map_full":
            return self._check_map(job_index, outputs[0][1])
        if self.workload == "fit_map":
            return _check_fit(outputs[0][1], self.truth, 0.02)
        return self._check_thickness(outputs[0][1]) + _check_fit(outputs[1][1], self.truth, 0.02)

    def _check_map(self, job_index: int, stdout: str) -> list[str]:
        out = self.work / "map_out.csv"
        config = load_config(self.work / self.files["config"])
        fields = config.field_grid.to_array()
        freqs = config.freq_grid.to_array()
        errors = []
        if stdout != f"map: {fields.size} fields x {freqs.size} freqs -> {out}\n":
            errors.append(f"unexpected map report {stdout!r}")
        data = out.read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        if self.map_digest is None:
            self.map_digest = digest
        elif digest != self.map_digest:
            errors.append("map CSV differs from the run's first job")
        lines = data.split(b"\n")
        if lines[0] != b"h_oe,omega,re_s21,im_s21" or len(lines) != fields.size * freqs.size + 2:
            return errors + ["map CSV header or row count is wrong"]
        template = config.template()
        rng = np.random.default_rng(job_index)
        worst = 0.0
        for row in rng.choice(fields.size * freqs.size, self.SAMPLES, replace=False):
            i, j = divmod(int(row), freqs.size)
            h, w, re, im = (float(x) for x in lines[1 + row].split(b","))
            if (h, w) != (fields[i], freqs[j]):
                errors.append(f"row {row} holds grid point ({h}, {w})")
                break
            expected = s21_sum_oracle(instantiate(template, h), w)
            worst = max(worst, abs(complex(re, im) - expected) / max(abs(expected), 1e-30))
        if worst > self.ORACLE_RTOL:
            errors.append(f"map disagrees with the sum oracle by {worst:.3e} relative")
        pgm = out.with_suffix(".pgm").read_bytes()
        header = f"P5\n{fields.size} {freqs.size}\n255\n".encode("ascii")
        if not pgm.startswith(header) or len(pgm) != len(header) + fields.size * freqs.size:
            errors.append("PGM header or size does not match the grid")
        return errors

    def _check_thickness(self, stdout: str) -> list[str]:
        for line in stdout.splitlines():
            parts = line.split()
            if parts[:1] == ["g2_of_t:"]:
                slope, intercept = float(parts[2]), float(parts[4])
                errors = []
                for label, value, key in (("slope", slope, "thickness_slope"),
                                          ("intercept", intercept, "thickness_intercept")):
                    if _relative(value, self.truth[key]) > 0.01:
                        errors.append(f"g2_of_t {label} {value!r} is more than 1% off "
                                      f"the generated {self.truth[key]!r}")
                return errors
        return ["thickness printed no g2_of_t trend"]
