"""Field sweeps: transmission maps, eigenvalue branches, anticrossing gaps.

A SystemTemplate is a hybrid system with the magnon frequencies left
open; instantiating it at an applied field fills them in through the
Kittel dispersion.  Sweeping the field then yields transmission maps
(field x frequency grids of s21) and branch curves (sorted complex
eigenvalues per field), from which anticrossing gaps are measured.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .core import (
    SINGULAR_COND_LIMIT,
    HybridSystem,
    KittelMaterial,
    ModeSpec,
    _assemble_hamiltonian,
    _transmission,
    field_for_frequency,
    kittel_frequency,
    kittel_slope,
    sort_eigenvalues,
    stripline_vector,
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
        for name in ("alpha", "beta"):
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or not math.isfinite(value) or value < 0:
                raise InvalidSystem(f"magnon {self.label!r}: {name} must be finite and >= 0, got {value!r}")


@dataclass(frozen=True)
class SystemTemplate:
    """A hybrid system parametrized by the applied field.

    Couplings are keyed by unordered label pairs.  Instantiated mode
    order is [magnons[0], resonator, magnons[1], magnons[2], ...], which
    reproduces the canonical three-mode layout for two magnons; in that
    case a direct magnon-magnon coupling is rejected.
    """

    resonator: ModeSpec
    magnons: tuple[TemplateMagnon, ...]
    couplings: dict[tuple[str, str], float] = field(default_factory=dict)

    def __post_init__(self):
        if not isinstance(self.magnons, tuple):
            object.__setattr__(self, "magnons", tuple(self.magnons))
        labels = self.mode_order()
        if len(set(labels)) != len(labels):
            raise InvalidSystem(f"mode labels must be unique, got {labels}")
        magnon_labels = {m.label for m in self.magnons}
        normalized: dict[tuple[str, str], float] = {}
        for pair, g in self.couplings.items():
            a, b = pair
            for name in (a, b):
                if name not in labels:
                    raise InvalidSystem(f"coupling names unknown mode {name!r}")
            if a == b:
                raise InvalidSystem(f"self-coupling on {a!r}")
            if isinstance(g, complex) or not isinstance(g, (int, float)) or not math.isfinite(g):
                raise InvalidSystem(f"coupling {pair} must be a finite real, got {g!r}")
            if len(self.magnons) == 2 and a in magnon_labels and b in magnon_labels and g != 0.0:
                raise InvalidSystem(
                    "two-magnon templates are resonator-mediated: "
                    f"direct coupling {pair} is not allowed"
                )
            key = (min(a, b), max(a, b))
            if key in normalized and normalized[key] != float(g):
                raise InvalidSystem(f"coupling pair {key} given twice with different values")
            normalized[key] = float(g)
        object.__setattr__(self, "couplings", normalized)

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

    def with_coupling(self, a: str, b: str, g: float) -> "SystemTemplate":
        updated = dict(self.couplings)
        updated[(min(a, b), max(a, b))] = g
        return replace(self, couplings=updated)


def _check_axis(name: str, values) -> np.ndarray:
    """A grid axis as a float array: nonempty, 1-D, finite, strictly ascending."""
    arr = np.asarray(values, dtype=float)
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
class ThicknessModel:
    """Linear film-thickness law for a coupling constant.

    g(t) = slope * t + intercept on t in [t_min, t_max] (micrometers);
    the law must stay nonnegative over the whole range.
    """

    slope: float
    intercept: float
    t_min: float
    t_max: float

    def __post_init__(self):
        for name in ("slope", "intercept", "t_min", "t_max"):
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                raise InvalidSystem(f"thickness model {name} must be a finite real, got {value!r}")
        if not self.t_min < self.t_max:
            raise InvalidSystem(f"thickness range is empty: [{self.t_min}, {self.t_max}]")
        for t in (self.t_min, self.t_max):
            if self.evaluate(t) < 0.0:
                raise NegativeCoupling(
                    f"coupling law {self.slope} * t + {self.intercept} dips below zero at t={t}"
                )

    def evaluate(self, t: float) -> float:
        return self.slope * t + self.intercept


@dataclass(frozen=True)
class AnticrossingReport:
    """Location and size of a minimal branch separation."""

    h_star: float
    gap: float
    g_estimate: float


# ── Operations ─────────────────────────────────────────────────────────


def instantiate(template: SystemTemplate, h: float) -> HybridSystem:
    """Hybrid system at applied field h: magnons get their Kittel frequency."""
    by_label: dict[str, ModeSpec] = {template.resonator.label: template.resonator}
    for m in template.magnons:
        by_label[m.label] = ModeSpec(
            label=m.label,
            omega=kittel_frequency(m.material, h),
            alpha=m.alpha,
            beta=m.beta,
        )
    order = template.mode_order()
    index = {name: k for k, name in enumerate(order)}
    couplings = {
        (index[a], index[b]): g for (a, b), g in template.couplings.items()
    }
    return HybridSystem(tuple(by_label[name] for name in order), couplings)


def hamiltonians(template: SystemTemplate, fields) -> np.ndarray:
    """Coupling matrices over a field sweep, stacked to shape (len(fields), n, n).

    Row k equals _assemble_hamiltonian(instantiate(template, fields[k]))
    bit for bit.  The zero-field matrix supplies every field-independent
    entry; only each magnon's diagonal slot, its Kittel frequency minus
    i (alpha + beta), is written per field.
    """
    fields = np.asarray(fields, dtype=float)
    base = _assemble_hamiltonian(instantiate(template, 0.0))
    hams = np.repeat(base[None], fields.size, axis=0)
    order = template.mode_order()
    for m in template.magnons:
        k = order.index(m.label)
        hams[:, k, k] = kittel_frequency(m.material, fields) - 1j * (m.alpha + m.beta)
    return hams


# Fields per block of the transmission kernel, so temporaries stay
# independent of the grid size.
_FIELD_BLOCK = 32


def compute_map(template: SystemTemplate, fields, freqs) -> SpectrumMap:
    """Transmission map over a field x frequency grid.

    Each grid point equals s21(instantiate(template, h), omega) exactly:
    both run the same elementwise partial-pivot elimination.
    SingularResponse is decided, as in s21, by the 2-norm condition
    number of the response matrix (an SVD), reported at the first
    offending point in row-major order.  A bound from the LU factors
    only pre-screens: the SVD runs wherever that bound comes within 10x
    of the limit.
    """
    fields = _check_axis("fields", fields)
    freqs = _check_axis("freqs", freqs)
    hams = hamiltonians(template, fields)
    weights = stripline_vector(instantiate(template, 0.0))
    values = np.empty((fields.size, freqs.size), dtype=complex)
    for start in range(0, fields.size, _FIELD_BLOCK):
        block = slice(start, start + _FIELD_BLOCK)
        values[block], cond = _transmission(hams[block], weights, freqs)
        bad = np.argwhere(cond > SINGULAR_COND_LIMIT)
        if bad.size:
            i, j = bad[0]
            raise SingularResponse(
                f"response matrix numerically singular at h={fields[start + i]!r}, "
                f"omega={freqs[j]!r} (estimated condition number {cond[i, j]:.3e})"
            )
    return SpectrumMap(fields, freqs, values)


def compute_branches(template: SystemTemplate, fields) -> BranchCurves:
    """Sorted complex eigenvalue branches over a field sweep."""
    fields = _check_axis("fields", fields)
    hams = hamiltonians(template, fields)
    try:
        values = np.linalg.eigvals(hams)
    except np.linalg.LinAlgError:
        # Locate the offending field for the error message.
        for h, ham in zip(fields, hams):
            try:
                np.linalg.eigvals(ham)
            except np.linalg.LinAlgError as exc:
                raise EigenFailure(f"eigenvalue iteration failed at h={h!r}") from exc
        raise EigenFailure("eigenvalue iteration failed")  # pragma: no cover
    sorted_rows = np.stack([sort_eigenvalues(row) for row in values])
    return BranchCurves(fields, sorted_rows)


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
    return field_for_frequency(magnon.material, template.resonator.omega)


def crossing_window(
    template: SystemTemplate,
    label: str,
    half_width_gaps: float = 8.0,
) -> tuple[float, float]:
    """Field window straddling a magnon-resonator crossing.

    The half width is half_width_gaps anticrossing gaps translated to
    field through the local Kittel slope (with a floor for weak
    coupling).
    """
    h_c = crossing_field(template, label)
    g = abs(template.coupling(label, template.resonator.label))
    magnon = template.magnon(label)
    scale = max(2.0 * g, 0.05)
    half = half_width_gaps * scale / kittel_slope(magnon.material, max(h_c, 1.0))
    return (max(h_c - half, 0.0), h_c + half)


def gap_at_crossing(
    template: SystemTemplate,
    label: str,
    points: int = 201,
    half_width_gaps: float = 8.0,
) -> AnticrossingReport:
    """Anticrossing gap of one magnon-resonator crossing on a dense local sweep."""
    lo, hi = crossing_window(template, label, half_width_gaps)
    fields = np.linspace(lo, hi, points)
    curves = compute_branches(template, fields)
    return anticrossing_gap(curves, (float(fields[0]), float(fields[-1])))


def thickness_sweep(
    base: SystemTemplate,
    yig_coupling: ThicknessModel,
    crosslink_slope: float,
    crosslink_intercept: float,
    thicknesses,
    varied_label: str | None = None,
    linked_label: str | None = None,
) -> list[tuple[float, SystemTemplate]]:
    """Templates for a film-thickness series.

    The varied magnon's resonator coupling follows the thickness law
    g2 = yig_coupling.evaluate(t); the linked magnon's coupling follows
    the crosslink g1 = crosslink_slope * g2 + crosslink_intercept.  With
    no linked magnon the crosslink is ignored.  Defaults: for two
    magnons the second is varied and the first linked; for one magnon it
    is varied and nothing is linked.
    """
    if varied_label is None:
        if not base.magnons:
            raise InvalidSystem("template has no magnon to vary")
        varied_label = base.magnons[-1].label
    base.magnon(varied_label)  # existence check
    if linked_label is None and len(base.magnons) >= 2:
        candidates = [m.label for m in base.magnons if m.label != varied_label]
        linked_label = candidates[0]
    if linked_label is not None:
        base.magnon(linked_label)
        if linked_label == varied_label:
            raise InvalidSystem("varied and linked magnon must differ")
    res = base.resonator.label
    out: list[tuple[float, SystemTemplate]] = []
    for t in thicknesses:
        t = float(t)
        if not (yig_coupling.t_min <= t <= yig_coupling.t_max):
            raise InvalidSystem(
                f"thickness {t} outside model range [{yig_coupling.t_min}, {yig_coupling.t_max}]"
            )
        g2 = yig_coupling.evaluate(t)
        template = base.with_coupling(varied_label, res, g2)
        if linked_label is not None:
            g1 = crosslink_slope * g2 + crosslink_intercept
            if g1 < 0.0:
                raise NegativeCoupling(f"crosslink gives g={g1} at t={t}")
            template = template.with_coupling(linked_label, res, g1)
        out.append((t, template))
    return out
