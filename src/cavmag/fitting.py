"""Ridge extraction and model fitting for transmission maps.

Fits minimize either the squared distance between measured ridge
frequencies and the nearest model eigenbranch (fit_branches) or the
squared complex misfit of the full transmission map (fit_map).  The
optimizer is a bounded derivative-free simplex search with a pinned
convergence contract: converged means the objective's relative decrease
across an iteration fell below 1e-10 or the step norm (in box-scaled
coordinates) fell below 1e-12, and never holds for a non-finite
objective.  Non-convergence is never an exception; the best point found
is returned with converged False after five jittered restarts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DegenerateData, DegenerateProblem, InvalidSystem
from .sweep import SpectrumMap, SystemTemplate, _parabola_coefficients, hamiltonians

FTOL_REL = 1e-10
XTOL = 1e-12
MULTISTART = 5
JITTER = 0.3
_TINY = 1e-300


# ── Ridge extraction ───────────────────────────────────────────────────


@dataclass(frozen=True)
class RidgeSet:
    """Per-field transmission peak frequencies, strongest first."""

    fields: np.ndarray
    peaks: tuple[np.ndarray, ...]

    def total(self) -> int:
        return sum(p.size for p in self.peaks)


def extract_ridges(spectrum: SpectrumMap, n_ridges: int, min_separation: float) -> RidgeSet:
    """Locate up to n_ridges |s21| peaks per field column.

    Peaks are interior local maxima of |s21| over frequency, refined by
    three-point parabolic interpolation, kept strongest first, and
    thinned so surviving peaks sit at least min_separation apart.
    Columns with fewer maxima simply yield fewer peaks.  A maximum whose
    parabola is not concave, or whose vertex leaves its bracket, keeps
    its grid point and height.
    """
    if n_ridges < 1:
        raise InvalidSystem(f"n_ridges must be >= 1, got {n_ridges}")
    if not (isinstance(min_separation, (int, float)) and min_separation > 0):
        raise InvalidSystem(f"min_separation must be > 0, got {min_separation!r}")
    freqs = spectrum.freqs
    magnitudes = np.abs(spectrum.values)
    centre = magnitudes[:, 1:-1]
    rows, k = np.nonzero((centre > magnitudes[:, :-2]) & (centre > magnitudes[:, 2:]))
    k += 1
    x = (freqs[k - 1], freqs[k], freqs[k + 1])
    y = (magnitudes[rows, k - 1], magnitudes[rows, k], magnitudes[rows, k + 1])
    with np.errstate(all="ignore"):  # overflow only near the largest floats
        a, b = _parabola_coefficients(x, y)
        vertex = x[1] - b / (2.0 * a)
        apex = y[1] - b * b / (4.0 * a)
    refined = (a < 0.0) & (x[0] <= vertex) & (vertex <= x[2])
    peak_freqs = np.where(refined, vertex, x[1])
    heights = np.where(refined, apex, y[1])
    bounds = np.searchsorted(rows, np.arange(magnitudes.shape[0] + 1)).tolist()
    peaks = list(zip(peak_freqs.tolist(), heights.tolist()))
    columns: list[np.ndarray] = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        # Python's stable sort, as NaN heights (from overflow) must keep
        # their place in its comparison order, which np.argsort does not
        kept: list[float] = []
        for freq, _height in sorted(peaks[lo:hi], key=lambda p: -p[1]):
            if all(abs(freq - other) >= min_separation for other in kept):
                kept.append(freq)
                if len(kept) == n_ridges:
                    break
        columns.append(np.array(sorted(kept), dtype=float))
    return RidgeSet(fields=spectrum.fields, peaks=tuple(columns))


# ── Fit problem and result ─────────────────────────────────────────────

_PARAM_KINDS = ("g", "alpha", "beta", "omega", "gamma", "four_pi_m")


def split_parameter_name(name: str) -> tuple[str, list[str]]:
    """Kind and mode labels of a 'kind:label' or 'g:labelA:labelB' name.

    Raises InvalidSystem for an unknown kind or a wrong label count.
    """
    kind, *labels = name.split(":")
    if kind not in _PARAM_KINDS:
        raise InvalidSystem(f"unknown parameter kind in {name!r}")
    if kind == "g" and len(labels) != 2:
        raise InvalidSystem(f"coupling parameter needs two labels: {name!r}")
    if kind != "g" and len(labels) != 1:
        raise InvalidSystem(f"parameter needs exactly one label: {name!r}")
    return kind, labels


@dataclass(frozen=True)
class FreeParameter:
    """One free scalar with finite bounds and an in-bounds initial guess.

    Names follow 'kind:label' or 'g:labelA:labelB': couplings by label
    pair, alpha/beta by mode label, omega for the resonator, gamma and
    four_pi_m for a magnon's material.
    """

    name: str
    lower: float
    upper: float
    initial: float

    def __post_init__(self):
        kind, _ = split_parameter_name(self.name)
        for field_name in ("lower", "upper", "initial"):
            value = getattr(self, field_name)
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                raise InvalidSystem(f"parameter {self.name!r}: {field_name} must be finite")
        if not self.lower < self.upper:
            raise InvalidSystem(
                f"parameter {self.name!r}: bounds [{self.lower}, {self.upper}] leave no freedom"
            )
        if not self.lower <= self.initial <= self.upper:
            raise InvalidSystem(
                f"parameter {self.name!r}: initial {self.initial} outside [{self.lower}, {self.upper}]"
            )
        if kind in ("alpha", "beta", "omega", "gamma", "four_pi_m") and self.lower < 0:
            raise InvalidSystem(f"parameter {self.name!r}: lower bound must be >= 0")


@dataclass(frozen=True)
class FitProblem:
    """A template plus the free parameters a fit may move."""

    template: SystemTemplate
    free: tuple[FreeParameter, ...]

    def __post_init__(self):
        if not isinstance(self.free, tuple):
            object.__setattr__(self, "free", tuple(self.free))
        names = [p.name for p in self.free]
        if len(set(names)) != len(names):
            raise InvalidSystem(f"duplicate free parameter names: {names}")
        apply_parameters(self.template, {p.name: p.initial for p in self.free})


@dataclass(frozen=True)
class FitResult:
    """Best parameters, data misfit and optimizer bookkeeping.

    history is the accepted best-objective sequence (nonincreasing);
    stderr holds per-parameter estimates from the local quadratic model,
    NaN where the curvature is unusable.
    """

    params: dict[str, float]
    residual: float
    iterations: int
    converged: bool
    stderr: dict[str, float]
    history: tuple[float, ...]


def apply_parameters(template: SystemTemplate, values: dict[str, float]) -> SystemTemplate:
    """Template with the named free parameters replaced by new values."""
    out = template
    for name, value in values.items():
        kind, labels = split_parameter_name(name)
        if kind == "g":
            known = set(out.mode_order())
            for label in labels:
                if label not in known:
                    raise InvalidSystem(f"parameter {name!r} names unknown mode {label!r}")
            out = out.with_coupling(labels[0], labels[1], float(value))
            continue
        (label,) = labels
        if kind == "omega":
            if label != out.resonator.label:
                raise InvalidSystem(f"omega is only free on the resonator, got {name!r}")
            out = replace(out, resonator=replace(out.resonator, omega=float(value)))
        elif kind in ("alpha", "beta"):
            if label == out.resonator.label:
                out = replace(out, resonator=replace(out.resonator, **{kind: float(value)}))
            else:
                magnons = tuple(
                    replace(m, **{kind: float(value)}) if m.label == label else m
                    for m in out.magnons
                )
                if magnons == out.magnons:
                    raise InvalidSystem(f"parameter {name!r} names unknown mode {label!r}")
                out = replace(out, magnons=magnons)
        else:  # gamma or four_pi_m
            magnon = out.magnon(label)
            material = replace(magnon.material, **{kind: float(value)})
            magnons = tuple(
                replace(m, material=material) if m.label == label else m for m in out.magnons
            )
            out = replace(out, magnons=magnons)
    return out


# ── Bounded simplex search ─────────────────────────────────────────────


@dataclass
class _SearchOutcome:
    x: np.ndarray
    fun: float
    iterations: int
    converged: bool
    history: list[float]


def _simplex_search(fun, x0, lower, upper, maxiter) -> _SearchOutcome:
    """Nelder-Mead on the unit box [0, 1]^n (coordinates scaled by the
    bounds), with candidate points clipped back into the box."""
    span = upper - lower
    to_u = lambda x: (x - lower) / span
    to_x = lambda u: lower + np.clip(u, 0.0, 1.0) * span
    f = lambda u: float(fun(to_x(u)))
    n = x0.size
    u0 = np.clip(to_u(x0), 0.0, 1.0)
    step = 0.08
    simplex = [u0]
    for i in range(n):
        vertex = u0.copy()
        vertex[i] = vertex[i] + step if vertex[i] + step <= 1.0 else vertex[i] - step
        simplex.append(vertex)
    simplex = np.array(simplex)
    values = np.array([f(v) for v in simplex])
    history = [float(np.min(values))]
    converged = False
    iteration = 0
    while iteration < maxiter:
        iteration += 1
        order = np.argsort(values, kind="stable")
        simplex, values = simplex[order], values[order]
        best, worst = values[0], values[-1]
        if not math.isfinite(best):
            break  # no finite vertex to compare against: never converged
        diameter = float(np.max(np.abs(simplex[1:] - simplex[0]))) if n else 0.0
        if (worst - best) <= FTOL_REL * max(abs(best), _TINY) or diameter <= XTOL:
            converged = True
            break
        centroid = simplex[:-1].mean(axis=0)
        reflected = np.clip(centroid + (centroid - simplex[-1]), 0.0, 1.0)
        f_reflected = f(reflected)
        if f_reflected < values[0]:
            expanded = np.clip(centroid + 2.0 * (reflected - centroid), 0.0, 1.0)
            f_expanded = f(expanded)
            if f_expanded < f_reflected:
                simplex[-1], values[-1] = expanded, f_expanded
            else:
                simplex[-1], values[-1] = reflected, f_reflected
        elif f_reflected < values[-2]:
            simplex[-1], values[-1] = reflected, f_reflected
        else:
            if f_reflected < values[-1]:
                contracted = np.clip(centroid + 0.5 * (reflected - centroid), 0.0, 1.0)
            else:
                contracted = centroid + 0.5 * (simplex[-1] - centroid)
            f_contracted = f(contracted)
            if f_contracted < min(f_reflected, values[-1]):
                simplex[-1], values[-1] = contracted, f_contracted
            else:
                for i in range(1, n + 1):
                    simplex[i] = simplex[0] + 0.5 * (simplex[i] - simplex[0])
                    values[i] = f(simplex[i])
        history.append(min(history[-1], float(np.min(values))))
    k = int(np.argmin(values))
    return _SearchOutcome(
        x=to_x(simplex[k]), fun=float(values[k]), iterations=iteration,
        converged=converged, history=history,
    )


def _stderr_estimates(fun, x, lower, upper, best, n_data) -> np.ndarray:
    """Per-parameter standard errors from the local quadratic model."""
    n = x.size
    out = np.full(n, math.nan)
    dof = n_data - n
    if dof <= 0 or not math.isfinite(best):
        return out
    h = 1e-4 * (upper - lower)
    clip = lambda p: np.clip(p, lower, upper)
    try:
        hessian = np.empty((n, n))
        for i in range(n):
            ei = np.zeros(n)
            ei[i] = h[i]
            hessian[i, i] = (fun(clip(x + ei)) + fun(clip(x - ei)) - 2.0 * best) / h[i] ** 2
        for i in range(n):
            for j in range(i + 1, n):
                ei = np.zeros(n)
                ej = np.zeros(n)
                ei[i] = h[i]
                ej[j] = h[j]
                mixed = (
                    fun(clip(x + ei + ej))
                    - fun(clip(x + ei - ej))
                    - fun(clip(x - ei + ej))
                    + fun(clip(x - ei - ej))
                ) / (4.0 * h[i] * h[j])
                hessian[i, j] = hessian[j, i] = mixed
        covariance = 2.0 * (best / dof) * np.linalg.inv(hessian)
        diag = np.diag(covariance)
        out = np.where(diag >= 0.0, np.sqrt(np.abs(diag)), math.nan)
    except np.linalg.LinAlgError:
        pass
    return out


def _optimize(objective, problem: FitProblem, n_data: int) -> FitResult:
    names = [p.name for p in problem.free]
    if not names:
        residual = float(objective(np.empty(0)))
        return FitResult(params={}, residual=residual, iterations=0,
                         converged=math.isfinite(residual),
                         stderr={}, history=(residual,))
    x0 = np.array([p.initial for p in problem.free], dtype=float)
    lower = np.array([p.lower for p in problem.free], dtype=float)
    upper = np.array([p.upper for p in problem.free], dtype=float)
    maxiter = 200 * (len(names) + 1) + 400
    best = _simplex_search(objective, x0, lower, upper, maxiter)
    total_iterations = best.iterations
    if not best.converged:
        rng = np.random.default_rng(1789)  # fixed: restarts must be reproducible
        for _ in range(MULTISTART):
            jittered = np.clip(x0 * (1.0 + rng.uniform(-JITTER, JITTER, x0.size)), lower, upper)
            attempt = _simplex_search(objective, jittered, lower, upper, maxiter)
            total_iterations += attempt.iterations
            if attempt.fun < best.fun or (attempt.converged and not best.converged
                                          and attempt.fun <= best.fun * (1.0 + 1e-9)):
                best = attempt
            if best.converged:
                break
    stderr = _stderr_estimates(objective, best.x, lower, upper, best.fun, n_data)
    return FitResult(
        params=dict(zip(names, (float(v) for v in best.x))),
        residual=best.fun,
        iterations=total_iterations,
        converged=best.converged,
        stderr=dict(zip(names, (float(s) for s in stderr))),
        history=tuple(best.history),
    )


# ── Fits ───────────────────────────────────────────────────────────────


def fit_branches(ridges: RidgeSet, problem: FitProblem) -> FitResult:
    """Fit free parameters so eigenbranch real parts meet the ridges.

    The objective is the summed squared distance from each ridge
    frequency to the nearest model eigenvalue real part at its field.
    """
    n_data = ridges.total()
    n_free = len(problem.free)
    if n_data < n_free + 2:
        raise DegenerateProblem(
            f"{n_data} ridge points cannot constrain {n_free} parameters (need >= {n_free + 2})"
        )
    names = [p.name for p in problem.free]
    occupied = [(float(h), peaks) for h, peaks in zip(ridges.fields, ridges.peaks) if peaks.size]
    fields = np.array([h for h, _ in occupied], dtype=float)

    def objective(values: np.ndarray) -> float:
        candidate = apply_parameters(problem.template, dict(zip(names, values)))
        hams = hamiltonians(candidate, fields)
        real_parts = np.sort(np.linalg.eigvals(hams).real, axis=1)
        total = 0.0
        for row, (_h, peaks) in zip(real_parts, occupied):
            distance = np.min(np.abs(peaks[:, None] - row[None, :]), axis=1)
            total += float(distance @ distance)
        return total

    return _optimize(objective, problem, n_data)


def fit_map(data: SpectrumMap, problem: FitProblem) -> FitResult:
    """Fit free parameters against a full complex transmission map.

    The objective is sum |model - data|^2 over the grid; real and
    imaginary parts count as separate residuals for the error model.
    """
    from .sweep import compute_map  # local import keeps module load light

    n_data = 2 * data.values.size
    if data.values.size < len(problem.free):
        raise DegenerateProblem(
            f"{data.values.size} map points cannot constrain {len(problem.free)} parameters"
        )
    names = [p.name for p in problem.free]

    def objective(values: np.ndarray) -> float:
        candidate = apply_parameters(problem.template, dict(zip(names, values)))
        model = compute_map(candidate, data.fields, data.freqs).values
        misfit = model - data.values
        return float(np.sum(misfit.real**2 + misfit.imag**2))

    return _optimize(objective, problem, n_data)


# ── Linear regression ──────────────────────────────────────────────────


@dataclass(frozen=True)
class LinearFit:
    """Ordinary least squares line with its coefficient of determination."""

    slope: float
    intercept: float
    r_squared: float


def linear_regression(xs, ys) -> LinearFit:
    """Least-squares line through (xs, ys).

    Raises DegenerateData for fewer than two points or an abscissa with
    no spread.  Zero-residual data reports r_squared exactly 1, constant
    data included.
    """
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if x.ndim != 1 or x.shape != y.shape:
        raise DegenerateData(f"regression needs matching 1-D arrays, got {x.shape} and {y.shape}")
    if x.size < 2:
        raise DegenerateData(f"regression needs >= 2 points, got {x.size}")
    x_mean = float(x.mean())
    y_mean = float(y.mean())
    sxx = float(np.sum((x - x_mean) ** 2))
    if sxx == 0.0:
        raise DegenerateData("regression abscissa has no spread")
    slope = float(np.sum((x - x_mean) * (y - y_mean))) / sxx
    intercept = y_mean - slope * x_mean
    residuals = y - (slope * x + intercept)
    ss_res = float(residuals @ residuals)
    ss_tot = float(np.sum((y - y_mean) ** 2))
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return LinearFit(slope=slope, intercept=intercept, r_squared=r_squared)


# ── Default initial guesses ────────────────────────────────────────────


def coupling_guess_from_ridges(ridges: RidgeSet, window: tuple[float, float]) -> float:
    """Half the minimal adjacent ridge separation inside a field window.

    A data-driven stand-in for an anticrossing gap scan when no model
    eigenvalues are available yet.
    """
    lo, hi = window
    best = math.inf
    for h, peaks in zip(ridges.fields, ridges.peaks):
        if not lo <= h <= hi or peaks.size < 2:
            continue
        best = min(best, float(np.min(np.diff(peaks))))
    if not math.isfinite(best):
        raise DegenerateData(f"no field in [{lo}, {hi}] carries two ridges")
    return best / 2.0


def damping_guess_from_column(spectrum: SpectrumMap, field_index: int = -1) -> float:
    """Total damping (alpha + beta) from the FWHM of |s21|^2 in one column.

    The strongest peak's full width at half maximum equals twice the
    total damping of an isolated mode; callers splitting the result
    between alpha and beta typically halve it again.
    """
    power = np.abs(spectrum.values[field_index]) ** 2
    freqs = spectrum.freqs
    k = int(np.argmax(power))
    half = power[k] / 2.0
    if power[k] == 0.0:
        raise DegenerateData("column carries no response")
    left = freqs[0]
    for i in range(k, 0, -1):
        if power[i - 1] <= half:
            left = float(np.interp(half, [power[i - 1], power[i]], [freqs[i - 1], freqs[i]]))
            break
    right = freqs[-1]
    for i in range(k, freqs.size - 1):
        if power[i + 1] <= half:
            right = float(np.interp(half, [power[i + 1], power[i]], [freqs[i + 1], freqs[i]]))
            break
    return (right - left) / 2.0
