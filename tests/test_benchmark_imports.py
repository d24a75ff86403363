"""The benchmark harness imports and traces the package it measures.

perfbench/workloads.py imports library names (the sum oracle,
instantiate) and perfbench/spans.py wraps named layer functions.  A
rename or move of any of them must fail here, not only in a benchmark
run.  The map check calls load_config(...).template(), instantiate and
s21_sum_oracle only after a timed job, so those calls are made here too.
"""

import importlib.util
import sys
from pathlib import Path

import cavmag.cli
import cavmag.sweep
from cavmag.sweep import compute_map

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_workloads_import():
    workloads = load("workloads")
    assert set(workloads.WORKLOADS) == {"map_full", "fit_map", "branches_thickness"}


def test_tracer_wraps_every_layer_and_restores():
    spans = load("spans")
    originals = (cavmag.cli.compute_map, cavmag.sweep.compute_map, cavmag.sweep.instantiate)
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert cavmag.cli.compute_map is not originals[0]
        assert cavmag.sweep.compute_map is not originals[1]
        assert cavmag.sweep.instantiate is not originals[2]
    finally:
        tracer.restore()
    assert (cavmag.cli.compute_map, cavmag.sweep.compute_map,
            cavmag.sweep.instantiate) == originals


def test_map_check_calls_agree_with_compute_map():
    # the names and calls of Checker._check_map, on the device config
    workloads = load("workloads")
    config = workloads.load_config(ROOT / "configs" / "full_device.config")
    template = config.template()
    fields = config.field_grid.to_array()[::100]
    freqs = config.freq_grid.to_array()[::80]
    spectrum = compute_map(template, fields, freqs)
    for i, h in enumerate(fields):
        for j, w in enumerate(freqs):
            expected = workloads.s21_sum_oracle(workloads.instantiate(template, h), w)
            error = abs(spectrum.values[i, j] - expected) / max(abs(expected), 1e-30)
            assert error <= workloads.Checker.ORACLE_RTOL, (h, w)
