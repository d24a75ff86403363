"""Field sweeps: transmission maps, eigenvalue branches, anticrossing gaps.

A SystemTemplate is a hybrid system with the magnon frequencies left
open; instantiating it at an applied field fills them in through the
Kittel dispersion.  A template validates once, on construction, through
the rule every model record shares (core._model_table), into a read-only
table of arrays (SystemTemplate.arrays), from which sweeps and fits build
their field-stacked coupling matrices (_stack) with no per-field system
objects.  Sweeping the field yields transmission maps (field x frequency
grids of s21) and branch curves (sorted complex eigenvalues per field),
from which anticrossing gaps are measured.  A ThicknessSeries checks a
thickness law and its couplings once; each row is one template.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from types import MappingProxyType

import numpy as np

from .core import (
    SINGULAR_COND_LIMIT,
    HybridSystem,
    KittelMaterial,
    ModeSpec,
    _coupling_matrix,
    _coupling_slots,
    _float_array,
    _kernel_work,
    _kittel,
    _model_table,
    _real,
    _real_fields,
    _transmission,
    field_for_frequency,
    format_float,
    kittel_frequency,
    kittel_slope,
    sort_eigenvalues,
)
from .errors import (
    EigenFailure,
    InvalidSystem,
    NegativeCoupling,
    NoMinimum,
    SingularResponse,
    WindowTooNarrow,
)

# ── Types ──────────────────────────────────────────────────────────────


@dataclass(frozen=True)
class TemplateMagnon:
    """A magnon slot of a template: dampings plus film material.

    The resonance frequency is supplied later by the applied field.
    """

    label: str
    alpha: float
    beta: float
    material: KittelMaterial

    def __post_init__(self):
        _real_fields(self, ("alpha", "beta"), f"magnon {self.label!r}: ", ">= 0")


@dataclass(frozen=True)
class SystemTemplate:
    """A hybrid system parametrized by the applied field.

    Couplings are keyed by unordered label pairs (a mapping, or (pair, g)
    items).  Instantiated mode order is [magnons[0], resonator, magnons[1],
    magnons[2], ...], which reproduces the canonical three-mode layout for
    two magnons; in that case a direct magnon-magnon coupling is rejected.

    arrays is the model's table from core._model_table, in mode_order():
    omega is 0 at magnons, gamma and four_pi_m 0 at the resonator.
    """

    resonator: ModeSpec
    magnons: tuple[TemplateMagnon, ...]
    couplings: dict[tuple[str, str], float] = field(default_factory=dict)
    arrays: MappingProxyType = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.magnons, tuple):
            object.__setattr__(self, "magnons", tuple(self.magnons))
        res = self.resonator
        rows = [(0.0, m.alpha, m.beta, m.material.gamma, m.material.four_pi_m) for m in self.magnons]
        rows.insert(1, (res.omega, res.alpha, res.beta, 0.0, 0.0))  # slot 0 if no magnon
        arrays, couplings = _model_table(self.mode_order(), rows, self.couplings, self._check_coupling)
        object.__setattr__(self, "arrays", arrays)
        object.__setattr__(self, "couplings", couplings)

    def __reduce__(self):  # a mappingproxy cannot be pickled: copies rebuild the table
        return SystemTemplate, (self.resonator, self.magnons, self.couplings)

    def _check_coupling(self, key, g) -> tuple[int, int, float]:
        """core._coupling_slots, and g 0 between the two magnons of a
        two-magnon template."""
        j, k, g = _coupling_slots(self.mode_order(), key, g)
        if len(self.magnons) == 2 and (j, k) == (0, 2) and g != 0.0:
            raise InvalidSystem("two-magnon templates are resonator-mediated: "
                                f"direct coupling {key} is not allowed")
        return j, k, g

    def mode_order(self) -> list[str]:
        """Labels in instantiation order."""
        names = [m.label for m in self.magnons[:1]]
        names.append(self.resonator.label)
        names.extend(m.label for m in self.magnons[1:])
        return names

    def coupling(self, a: str, b: str) -> float:
        return self.couplings.get((min(a, b), max(a, b)), 0.0)

    def magnon(self, label: str) -> TemplateMagnon:
        for m in self.magnons:
            if m.label == label:
                return m
        raise InvalidSystem(f"no magnon labelled {label!r}")

    def with_couplings(self, couplings: dict[tuple[str, str], float]) -> "SystemTemplate":
        """This template with each (a, b): g of couplings set: one validation."""
        new = {(min(a, b), max(a, b)): g for (a, b), g in couplings.items()}
        return replace(self, couplings={**self.couplings, **new})


def _check_axis(name: str, values) -> np.ndarray:
    """A grid axis as a float array: nonempty, 1-D, finite, strictly ascending."""
    arr = _float_array(values)
    if arr.ndim != 1 or arr.size == 0:
        raise InvalidSystem(f"{name} must be a nonempty 1-D array")
    bad = np.flatnonzero(~np.isfinite(arr))
    if bad.size:
        i = int(bad[0])
        raise InvalidSystem(f"{name} must be finite, got {float(arr[i])!r} at index {i}")
    if not np.all(arr[1:] > arr[:-1]):
        raise InvalidSystem(f"{name} must be strictly ascending")
    return arr


@dataclass(frozen=True)
class SpectrumMap:
    """Complex transmission on a field x frequency grid.

    fields and freqs are strictly ascending 1-D arrays; values has shape
    (len(fields), len(freqs)).
    """

    fields: np.ndarray
    freqs: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        fields = _check_axis("fields", self.fields)
        freqs = _check_axis("freqs", self.freqs)
        values = np.asarray(self.values, dtype=complex)
        if values.shape != (fields.size, freqs.size):
            raise InvalidSystem(
                f"values shape {values.shape} does not match grid "
                f"({fields.size}, {freqs.size})"
            )
        object.__setattr__(self, "fields", fields)
        object.__setattr__(self, "freqs", freqs)
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class BranchCurves:
    """Sorted complex eigenvalues per swept field point."""

    fields: np.ndarray
    branches: np.ndarray  # shape (len(fields), n_modes), sorted per row

    def __post_init__(self):
        fields = _check_axis("fields", self.fields)
        branches = np.asarray(self.branches, dtype=complex)
        if branches.ndim != 2 or branches.shape[0] != fields.size:
            raise InvalidSystem(f"branches shape {branches.shape} does not match fields")
        object.__setattr__(self, "fields", fields)
        object.__setattr__(self, "branches", branches)


@dataclass(frozen=True)
class ThicknessSeries:
    """A film-thickness series, checked once, on construction.

    The law g2(t) = slope * t + intercept holds on t in [t_min, t_max]
    (micrometers) and must stay nonnegative over the whole range.  At
    each thickness t the varied magnon's resonator coupling is g2(t), and
    the linked magnon's is the crosslink g1 = crosslink_slope * g2 +
    crosslink_intercept.  rows holds (t, g2, g1); with no linked magnon
    g1 is None and the crosslink is ignored.  varied and linked must name
    two different magnons, each t lie in the law's range and each g pass
    the template's coupling check, with g1 >= 0.
    """

    template: SystemTemplate
    slope: float
    intercept: float
    t_min: float
    t_max: float
    thicknesses: tuple[float, ...]
    crosslink_slope: float
    crosslink_intercept: float
    varied: str
    linked: str | None = None
    rows: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _real_fields(self, ("slope", "intercept", "t_min", "t_max"), "thickness model ")
        if not self.t_min < self.t_max:
            raise InvalidSystem(f"thickness range is empty: [{self.t_min}, {self.t_max}]")
        for t in (self.t_min, self.t_max):
            if self.slope * t + self.intercept < 0.0:
                raise NegativeCoupling(
                    f"coupling law {self.slope} * t + {self.intercept} dips below zero at t={t}"
                )
        object.__setattr__(self, "thicknesses",
                           tuple(_real(t, "thickness value") for t in self.thicknesses))
        template = self.template
        for label in (self.varied, self.linked) if self.linked is not None else (self.varied,):
            template.magnon(label)
        _real_fields(self, ("crosslink_slope", "crosslink_intercept"), "")
        if self.linked == self.varied:
            raise InvalidSystem("varied and linked magnon must differ")
        res = template.resonator.label
        rows = []
        for t in self.thicknesses:
            if not self.t_min <= t <= self.t_max:
                raise InvalidSystem(
                    f"thickness {t} outside model range [{self.t_min}, {self.t_max}]")
            g2 = self.slope * t + self.intercept
            template._check_coupling(tuple(sorted((self.varied, res))), g2)
            g1 = None
            if self.linked is not None:
                g1 = self.crosslink_slope * g2 + self.crosslink_intercept
                if g1 < 0.0:
                    raise NegativeCoupling(f"crosslink gives g={g1} at t={t}")
                template._check_coupling(tuple(sorted((self.linked, res))), g1)
            rows.append((t, g2, g1))
        object.__setattr__(self, "rows", tuple(rows))


@dataclass(frozen=True)
class AnticrossingReport:
    """Location and size of a minimal branch separation."""

    h_star: float
    gap: float
    g_estimate: float


# ── Operations ─────────────────────────────────────────────────────────


def instantiate(template: SystemTemplate, h: float) -> HybridSystem:
    """Hybrid system at applied field h: magnons get their Kittel frequency."""
    modes = {template.resonator.label: template.resonator}
    for m in template.magnons:
        modes[m.label] = ModeSpec(m.label, kittel_frequency(m.material, h, m.label), m.alpha, m.beta)
    index = {name: k for k, name in enumerate(template.mode_order())}
    couplings = {(index[a], index[b]): g for (a, b), g in template.couplings.items()}
    return HybridSystem(tuple(modes[name] for name in index), couplings)


def _stack(arrays: dict, fields) -> tuple[np.ndarray, np.ndarray]:
    """The coupling matrices over fields, (len(fields), n, n), and the
    stripline weights sqrt(2) sqrt(beta) of a model given as
    SystemTemplate.arrays.  Per field only each magnon's diagonal slot is
    written: its Kittel frequency minus i (alpha + beta).  Row k equals
    build_coupling_hamiltonian(instantiate(template, fields[k])) bit for bit."""
    fields = np.asarray(fields, dtype=float)
    alpha, beta = arrays["alpha"], arrays["beta"]
    base = _coupling_matrix(arrays["omega"], alpha, beta, arrays["g"])
    hams = np.repeat(base[None], fields.size, axis=0)
    for k, label in arrays["magnons"]:
        omega = _kittel(arrays["gamma"][k], arrays["four_pi_m"][k], fields, label)
        hams[:, k, k] = omega - 1j * (alpha[k] + beta[k])
    return hams, math.sqrt(2.0) * np.sqrt(beta)


# Grid points per block of the transmission kernel, so temporaries stay
# independent of the grid size: 32 fields of full_device's 401 frequencies.
_BLOCK_POINTS = 32 * 401


def _block_fields(freqs: np.ndarray) -> int:
    """Fields per block of _each_block: a grid of up to _BLOCK_POINTS
    points is one kernel call, and a wider frequency axis gets fewer."""
    return max(1, _BLOCK_POINTS // freqs.size)


def _block_work(n: int, fields: np.ndarray, freqs: np.ndarray):
    """The work arrays (core._kernel_work) of _each_block over these axes
    for n modes, sized for its largest block.  A map allocates them once,
    and a fit once for all its evaluations, so a fit does not hand the
    allocator a new block-sized array on every evaluation."""
    return _kernel_work(n, min(fields.size, _block_fields(freqs)), freqs.size)


def _each_block(hams, weights, fields: np.ndarray, freqs: np.ndarray, visit, work) -> None:
    """Run the transmission kernel on a model's _stack over checked axes,
    block by block, calling visit(block, values, x) on each block.

    A block is _block_fields(freqs) fields, and every block runs in work,
    the caller's _block_work(n, fields, freqs).  block is the slice of
    fields covered, values the block's (fields, freqs) transmission and x
    the kernel's per-mode solution arrays.  Raises SingularResponse at the
    first offending point in row-major order, before visiting that point's
    block.
    """
    step = _block_fields(freqs)
    # A block's results are freed before the next block runs, so the
    # memory in use peaks at one block's whatever the number of fields.
    for start in range(0, fields.size, step):
        block = slice(start, start + step)
        values, cond, x = _transmission(hams[block], weights, freqs, work)
        bad = np.argwhere(cond > SINGULAR_COND_LIMIT)
        if bad.size:
            i, j = bad[0]
            raise SingularResponse(
                f"response matrix numerically singular at h={format_float(fields[start + i])}, "
                f"omega={format_float(freqs[j])} (estimated condition number {cond[i, j]:.3e})")
        visit(block, values, x)
        del values, cond, x


def compute_map(template: SystemTemplate, fields, freqs) -> SpectrumMap:
    """Transmission map over a field x frequency grid.

    Each grid point equals s21(instantiate(template, h), omega) exactly:
    both run the same elementwise partial-pivot elimination, here over
    blocks of whole fields of up to _BLOCK_POINTS points (_each_block),
    so the block size never changes a value.
    SingularResponse is decided, as in s21, by the 2-norm condition
    number of the response matrix (an SVD), reported at the first
    offending point in row-major order.  A passivity bound only
    pre-screens (core._cond_bound, per field): the SVD runs wherever that
    bound comes within 10x of the limit.
    """
    spectrum = SpectrumMap(fields, freqs, np.empty((np.size(fields), np.size(freqs)), complex))

    def store(block, block_values, _x):
        spectrum.values[block] = block_values

    work = _block_work(len(template.arrays["omega"]), spectrum.fields, spectrum.freqs)
    _each_block(*_stack(template.arrays, spectrum.fields), spectrum.fields, spectrum.freqs, store, work)
    return spectrum


def compute_branches(template: SystemTemplate, fields) -> BranchCurves:
    """Sorted complex eigenvalue branches over a field sweep."""
    curves = BranchCurves(fields, np.empty((np.size(fields), len(template.mode_order())), complex))
    hams = _stack(template.arrays, curves.fields)[0]
    try:
        values = np.linalg.eigvals(hams)
    except np.linalg.LinAlgError:
        # Locate the offending field for the error message.
        for h, ham in zip(curves.fields, hams):
            try:
                np.linalg.eigvals(ham)
            except np.linalg.LinAlgError as exc:
                raise EigenFailure(f"eigenvalue iteration failed at h={format_float(h)}") from exc
        raise EigenFailure("eigenvalue iteration failed")  # pragma: no cover
    curves.branches[:] = sort_eigenvalues(values)
    return curves


def _parabola_coefficients(x, y):
    """Curvature and slope-at-center of the parabola through three points.

    x[0..2] and y[0..2] are the points' abscissas and ordinates, scalars
    or arrays evaluated elementwise.  Works in coordinates centered on
    the middle point (divided differences), which keeps the arithmetic
    stable when the abscissas are large and the ordinate differences
    tiny.  Returns (a, b) of y(t) = a t^2 + b t + y[1] with t = x - x[1].
    """
    t_left = x[0] - x[1]
    t_right = x[2] - x[1]
    slope_left = (y[1] - y[0]) / (-t_left)
    slope_right = (y[2] - y[1]) / t_right
    a = (slope_right - slope_left) / (t_right - t_left)
    b = slope_right - a * t_right
    return a, b


def _parabola_vertex(x, y) -> tuple[float, float] | None:
    """Vertex of the convex parabola through three points, or None when
    the points are not strictly convex.  Handles nonuniform spacing."""
    a, b = _parabola_coefficients(x, y)
    if not (a > 0.0):
        return None
    tv = -b / (2.0 * a)
    return float(x[1] + tv), float(y[1] - b * b / (4.0 * a))


def anticrossing_gap(curves: BranchCurves, window: tuple[float, float]) -> AnticrossingReport:
    """Minimal adjacent-branch separation inside a field window.

    Scans the separations of adjacent sorted branch real parts, locates
    the interior minimum and refines both its field and its value by
    parabolic interpolation through the three bracketing points.
    """
    lo, hi = float(window[0]), float(window[1])
    if not lo < hi:
        raise WindowTooNarrow(f"window [{lo}, {hi}] is empty")
    if lo < curves.fields[0] or hi > curves.fields[-1]:
        raise WindowTooNarrow(
            f"window [{lo}, {hi}] leaves the swept range "
            f"[{curves.fields[0]}, {curves.fields[-1]}]"
        )
    mask = (curves.fields >= lo) & (curves.fields <= hi)
    fields = curves.fields[mask]
    if fields.size < 3:
        raise WindowTooNarrow(f"window [{lo}, {hi}] holds {fields.size} points, need >= 3")
    branches = curves.branches[mask]
    if branches.shape[1] < 2:
        raise InvalidSystem("gap scan needs at least two branches")
    separation = np.min(np.diff(branches.real, axis=1), axis=1)
    k = int(np.argmin(separation))
    if k == 0 or k == separation.size - 1:
        raise NoMinimum(
            f"branch separation has no interior minimum in [{lo}, {hi}]; "
            "the window likely misses the crossing"
        )
    vertex = _parabola_vertex(fields[k - 1 : k + 2], separation[k - 1 : k + 2])
    if vertex is None:
        h_star, gap = float(fields[k]), float(separation[k])
    else:
        h_star, gap = vertex
        h_star = float(np.clip(h_star, fields[k - 1], fields[k + 1]))
    gap = max(gap, 0.0)
    return AnticrossingReport(h_star=h_star, gap=gap, g_estimate=gap / 2.0)


def crossing_field(template: SystemTemplate, label: str) -> float:
    """Field at which a magnon's Kittel branch meets the bare resonator."""
    magnon = template.magnon(label)
    return field_for_frequency(magnon.material, template.resonator.omega, label)


# Half width of a crossing window, in anticrossing gaps.
WINDOW_HALF_WIDTH_GAPS = 8.0
# Fields of the dense sweep across a crossing window that gap_at_crossing scans.
GAP_SWEEP_POINTS = 201


def crossing_window(template: SystemTemplate, label: str) -> tuple[float, float]:
    """Field window straddling a magnon-resonator crossing.

    The half width is WINDOW_HALF_WIDTH_GAPS anticrossing gaps translated
    to field through the local Kittel slope (with a floor for weak
    coupling).
    """
    h_c = crossing_field(template, label)
    g = abs(template.coupling(label, template.resonator.label))
    slope = kittel_slope(template.magnon(label).material, max(h_c, 1.0), label)
    half = WINDOW_HALF_WIDTH_GAPS * max(2.0 * g, 0.05) / slope
    return (max(h_c - half, 0.0), h_c + half)


def gap_at_crossing(template: SystemTemplate, label: str) -> AnticrossingReport:
    """Anticrossing gap of one magnon-resonator crossing on a dense sweep
    of GAP_SWEEP_POINTS fields across its crossing_window."""
    lo, hi = crossing_window(template, label)
    if not math.isfinite(hi):
        g = format_float(template.coupling(label, template.resonator.label))
        raise InvalidSystem(f"magnon {label!r}: gap window [{format_float(lo)}, "
                            f"{format_float(hi)}] is not finite (coupling {g})")
    fields = np.linspace(lo, hi, GAP_SWEEP_POINTS)
    curves = compute_branches(template, fields)
    return anticrossing_gap(curves, (float(fields[0]), float(fields[-1])))


def thickness_sweep(series: ThicknessSeries) -> list[tuple[float, SystemTemplate]]:
    """(t, template) per row of series.rows: one with_couplings sets its g2 and g1."""
    res = series.template.resonator.label
    out = []
    for t, g2, g1 in series.rows:
        couplings = {(series.varied, res): g2}
        if g1 is not None:
            couplings[(series.linked, res)] = g1
        out.append((t, series.template.with_couplings(couplings)))
    return out
