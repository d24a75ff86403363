"""Spans and counters recorded around the calls into cavmag's layers.

The tracer wraps functions from outside the program: it replaces the
module attributes that callers look up at call time (``cavmag.cli``
imports its collaborators by name, ``fit_map`` re-imports
``compute_map`` from ``cavmag.sweep``, ``compute_map`` calls
``np.linalg.cond``) and puts every original back afterwards.  Spans are
recorded while the wrappers are installed, which the caller does only
around a job; they stay in memory and the caller writes them out at the
end of the run.

A span is ``[span_id, parent_id, job_id, name, start, end]``; spans of
one job share ``job_id`` and its root span has parent ``None``.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

ROOT = "cli"  # the job span; its self time is reported as cli.self.s


def _count_map(counters, args, result) -> None:
    fields, freqs = result.values.shape
    n = len(args[0].mode_order())
    counters["sweep.grid_points"] += fields * freqs
    # Computed size of the complex (F, W, n, n) response-matrix stack.
    counters["sweep.response_bytes"] += fields * freqs * n * n * 16


def _count_eigvals(counters, args, result) -> None:
    counters["numpy.linalg.eigvals.matrices"] += int(np.prod(np.shape(args[0])[:-2]))


def _count_read(counters, args, result) -> None:
    counters["dataio.read_spectrum_csv.bytes"] += os.path.getsize(args[0])


def _count_write(counters, args, result) -> None:
    counters["dataio.write_spectrum_csv.bytes"] += os.path.getsize(args[0])


# Layer name -> counter hook run after a successful call (or None).
LAYERS = {
    "config.load_config": None,
    "sweep.compute_map": _count_map,
    "sweep.instantiate": None,
    "sweep.compute_branches": None,
    "sweep.gap_at_crossing": None,
    "sweep.thickness_sweep": None,
    "fitting.fit_map": None,
    "fitting.fit_branches": None,
    "fitting.extract_ridges": None,
    "fitting.linear_regression": None,
    "synth.synth_map": None,
    "dataio.read_spectrum_csv": _count_read,
    "dataio.write_spectrum_csv": _count_write,
    "dataio.write_pgm": None,
    "dataio.write_thickness_csv": None,
    "numpy.linalg.cond": None,
    "numpy.linalg.solve": None,
    "numpy.linalg.eigvals": _count_eigvals,
}

# Modules whose attributes are replaced: every place a caller looks a layer up.
PATCHED_MODULES = ("cavmag.cli", "cavmag.config", "cavmag.sweep", "cavmag.fitting",
                   "cavmag.synth", "cavmag.dataio", "numpy.linalg")


class Tracer:
    """In-memory span and counter recorder for one benchmark run."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[int, Counter] = defaultdict(Counter)
        self.job: int | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def job_span(self, job_id: int):
        """Open the root span of one job; layer spans nest under it."""
        self.job = job_id
        span = self._open(ROOT)
        try:
            yield
        finally:
            self._close(span)
            self.job = None

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else None
        span = [len(self.spans), parent, self.job, name, time.perf_counter(), None]
        self.spans.append(span)
        self._stack.append(span[0])
        return span

    def _close(self, span: list) -> None:
        span[5] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, hook=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if hook is not None:
                hook(self.counters[self.job], args, result)
            return result

        return traced

    def install(self) -> None:
        """Replace every module attribute bound to a layer function."""
        wrappers = {}
        for name, hook in LAYERS.items():
            module, attr = name.rsplit(".", 1)
            if not module.startswith("numpy"):
                module = "cavmag." + module
            fn = getattr(importlib.import_module(module), attr)
            wrappers[id(fn)] = self.wrap(name, fn, hook)
        for module in map(importlib.import_module, PATCHED_MODULES):
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])

    def restore(self) -> None:
        """Put every replaced attribute back."""
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of it covered by its child spans."""
    children: dict[int, list] = defaultdict(list)
    for span in spans:
        if span[1] is not None:
            children[span[1]].append(span)
    out = {}
    for span_id, _parent, _job, _name, start, end in spans:
        covered = 0.0
        cursor = start
        for child in sorted(children.get(span_id, ()), key=lambda s: s[4]):
            lo, hi = max(child[4], cursor), min(child[5], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[span_id] = (end - start) - covered
    return out


def job_layers(spans, counters: Counter) -> dict[str, float]:
    """Per-layer self seconds, call counts and counters of one job's spans."""
    names = {span[0]: span[3] for span in spans}
    selfs = self_times(spans)
    out: dict[str, float] = {"cli.self.s": 0.0, **{f"{name}.s": 0.0 for name in LAYERS}}
    calls = Counter()
    evals = 0
    for span in spans:
        out["cli.self.s" if span[1] is None else f"{span[3]}.s"] += selfs[span[0]]
        calls[span[3]] += 1
        parent = names.get(span[1])
        # One objective evaluation is one model map (map fits) or one
        # batched eigenvalue call (branch fits) made directly by the fit.
        if (span[3], parent) in (("sweep.compute_map", "fitting.fit_map"),
                                 ("numpy.linalg.eigvals", "fitting.fit_branches")):
            evals += 1
    for name in LAYERS:
        out[f"{name}.calls"] = calls[name]
    out["fitting.objective_evals"] = evals
    for key in ("sweep.grid_points", "sweep.response_bytes", "numpy.linalg.eigvals.matrices",
                "dataio.read_spectrum_csv.bytes", "dataio.write_spectrum_csv.bytes"):
        out[key] = counters[key]
    root = next(span for span in spans if span[1] is None)
    out["job_s"] = root[5] - root[4]
    return out
