"""Ridge extraction and model fitting for transmission maps.

Fits minimize either the squared distance between measured ridge
frequencies and the nearest model eigenbranch (fit_branches) or the
squared complex misfit of the full transmission map (fit_map).  Both
use one box-constrained Levenberg-Marquardt search (More 1978 diagonal
scaling) on exact Jacobians.  Steps are projected into the bounds, and
a parameter sitting on a bound with its gradient pointing outward is
held fixed for that step.

Jacobians.  The response matrix M = i (omega I - H) is symmetric, so
the solve M y = w that gives s21 = w . y also gives every derivative,
d s21/dp = i y^T (dH/dp) y + 2 (dw/dp) . y.  A branch residual, a ridge
frequency minus the real part of its nearest eigenvalue, has the
derivative -Re(v^T (dH/dp) v / v^T v), with v that eigenvalue's
eigenvector.  beta enters only through sqrt(beta), whose derivative is
infinite at the allowed bound 0, so the search steps in s = sqrt(beta)
and reports sigma_beta = 2 s sigma_s.

Names meet a template only in resolve_parameter, where both spellings
of a coupling resolve alike, so a box naming both aliases ('g:a:b' and
'g:b:a') is rejected.  The box is validated once, when the FitProblem
is built, without building a template (see FitProblem).  Evaluations
re-validate nothing and build no template or system: each writes its
candidate into a copy of the template's arrays and builds H from them.

Convergence contract: a fit has converged when an accepted step lowers
the objective by at most FTOL_REL of its value, when a step measured in
box units (its largest |step| / (upper - lower)) is at most XTOL, or
when the projected gradient is zero, which includes a zero objective.
A non-finite objective never converges.  iterations counts the trial
steps, each one model evaluation after the one at the start point, up
to MAX_ITERATIONS.  Non-convergence is never an exception: the best
point found is returned with converged False.  A step whose objective
or Jacobian is not finite is rejected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import _check_dampings
from .errors import DegenerateData, DegenerateProblem, InvalidSystem
from .sweep import SpectrumMap, SystemTemplate, _each_block, _parabola_coefficients, _stack

FTOL_REL = 1e-10
XTOL = 1e-12
MAX_ITERATIONS = 100
# The field column whose strongest peak width damping_guess_from_column reads.
DAMPING_GUESS_COLUMN = -1
# Starting damping, relative to the diagonal scaling: close to Gauss-Newton.
_MU_START = 1e-3


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


def resolve_parameter(template: SystemTemplate, name: str) -> tuple[str, tuple[int, ...]]:
    """Kind and mode slots (in mode_order(), ascending) of a parameter name.

    InvalidSystem unless alpha, beta and g name modes of the template,
    omega the resonator, and gamma and four_pi_m a magnon.
    """
    kind, labels = split_parameter_name(name)
    order = template.mode_order()
    for label in labels if kind in ("g", "alpha", "beta") else ():
        if label not in order:
            raise InvalidSystem(f"parameter {name!r} names unknown mode {label!r}")
    if kind == "omega" and labels != [template.resonator.label]:
        raise InvalidSystem(f"omega is only free on the resonator, got {name!r}")
    if kind in ("gamma", "four_pi_m"):
        template.magnon(labels[0])
    return kind, tuple(sorted(order.index(label) for label in labels))


@dataclass(frozen=True)
class FreeParameter:
    """One free scalar with finite bounds and an in-bounds initial guess.

    Names follow 'kind:label' or 'g:labelA:labelB': couplings by label
    pair, alpha/beta by mode label, omega for the resonator, gamma and
    four_pi_m for a magnon's material.  Bounds of alpha, beta and omega
    must be >= 0, those of gamma and four_pi_m > 0; couplings may take
    any sign.
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
        if kind in ("alpha", "beta", "omega") and self.lower < 0:
            raise InvalidSystem(f"parameter {self.name!r}: lower bound must be >= 0")
        if kind in ("gamma", "four_pi_m") and not self.lower > 0:
            raise InvalidSystem(f"parameter {self.name!r}: lower bound must be > 0")


@dataclass(frozen=True)
class FitProblem:
    """A template plus the free parameters a fit may move.

    Box rule: each name must resolve (resolve_parameter) to a parameter
    no other name resolves to, so coupling aliases are rejected, the
    template must accept each free coupling at both of its bounds, and
    the dampings at their upper bounds must not overflow the coupling
    matrix.  Every other template check is an interval in one parameter
    that FreeParameter's bounds keep, and the overflow grows with the
    dampings, so every point of the box is then a valid template.  slots
    holds each parameter's (kind, mode slots).
    """

    template: SystemTemplate
    free: tuple[FreeParameter, ...]
    slots: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.free, tuple):
            object.__setattr__(self, "free", tuple(self.free))
        template = self.template
        order = template.mode_order()
        names: dict[tuple, str] = {}
        for p in self.free:
            slot = resolve_parameter(template, p.name)
            if slot in names:
                raise InvalidSystem(f"duplicate free parameters: {names[slot]!r} and {p.name!r}")
            names[slot] = p.name
            if slot[0] == "g":
                for side in ("lower", "upper"):
                    try:
                        template._check_coupling(*(order[k] for k in slot[1]), getattr(p, side))
                    except InvalidSystem as exc:
                        raise InvalidSystem(f"free parameters at their {side} bounds: {exc}") from None
        object.__setattr__(self, "slots", tuple(names))
        upper = self.arrays_at([p.upper for p in self.free])
        try:
            _check_dampings(order, upper["alpha"], upper["beta"])
        except InvalidSystem as exc:
            raise InvalidSystem(f"free parameters at their upper bounds: {exc}") from None

    def arrays_at(self, values) -> dict:
        """Copies of the template's arrays (SystemTemplate.arrays) set to values."""
        arrays = self.template.arrays
        arrays = dict(arrays, **{kind: arrays[kind].copy() for kind, _ in self.slots})
        for (kind, index), value in zip(self.slots, values):
            arrays[kind][index] = arrays[kind][index[::-1]] = value  # g: (j, k) and (k, j)
        return arrays


@dataclass(frozen=True)
class FitResult:
    """Best parameters, data misfit and optimizer bookkeeping.

    residual is the objective at params; iterations the number of trial
    steps (one model evaluation each, see the module docstring); history
    the objective at the start and after each accepted step
    (nonincreasing).  stderr comes from the covariance s^2 (J^T J)^-1,
    with s^2 = residual / (n_data - n_free) and J the residual Jacobian
    at params.  It is NaN for a parameter on a bound, for every
    parameter when J^T J over the others is singular (not positive
    definite), and when the residual is not finite or no degree of
    freedom is left.
    """

    params: dict[str, float]
    residual: float
    iterations: int
    converged: bool
    stderr: dict[str, float]
    history: tuple[float, ...]


# ── Box-constrained Levenberg-Marquardt ────────────────────────────────


def _finite(f, grad, normal) -> bool:
    return math.isfinite(f) and bool(np.isfinite(grad).all() and np.isfinite(normal).all())


def _levenberg_marquardt(evaluate, x, lower, upper):
    """Minimize f = |r|^2 over the box [lower, upper].

    evaluate(x) returns (f, J^T r, J^T J).  Returns (x, f, J^T J,
    iterations, converged, history) for the best point found; the
    convergence contract is the module docstring's.
    """
    f, grad, normal = evaluate(x)
    history = [f]
    if not _finite(f, grad, normal):
        return x, f, normal, 0, False, history
    span = upper - lower
    scale = np.diag(normal).copy()  # More's D^2: the largest diag(J^T J) seen
    mu, nu = _MU_START, 2.0
    for iteration in range(1, MAX_ITERATIONS + 1):
        free = ~(((x <= lower) & (grad > 0.0)) | ((x >= upper) & (grad < 0.0)))
        if not np.any(grad[free]):
            return x, f, normal, iteration - 1, True, history
        damping = np.where(scale > 0.0, scale, 1.0)[free]
        step = np.zeros_like(x)
        step[free] = np.linalg.solve(normal[np.ix_(free, free)] + np.diag(mu * damping),
                                     -grad[free])
        trial = np.clip(x + step, lower, upper)
        step = trial - x
        if np.max(np.abs(step) / span) <= XTOL:
            return x, f, normal, iteration - 1, True, history
        f_new, grad_new, normal_new = evaluate(trial)
        if not (_finite(f_new, grad_new, normal_new) and f_new <= f):
            mu, nu = mu * nu, 2.0 * nu
            continue
        predicted = -(2.0 * grad @ step + step @ normal @ step)
        rho = (f - f_new) / predicted if predicted > 0.0 else 0.0
        mu *= max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3)  # Nielsen's update
        nu = 2.0
        converged = f - f_new <= FTOL_REL * f
        x, f, grad, normal = trial, f_new, grad_new, normal_new
        scale = np.maximum(scale, np.diag(normal))
        history.append(f)
        if converged:
            return x, f, normal, iteration, True, history
    return x, f, normal, MAX_ITERATIONS, False, history


def _standard_errors(x, lower, upper, f, normal, n_data) -> np.ndarray:
    """sqrt(diag(s^2 (J^T J)^-1)) over the parameters off their bounds."""
    out = np.full(x.size, math.nan)
    inside = (x > lower) & (x < upper)
    dof = n_data - x.size
    if dof <= 0 or not math.isfinite(f) or not inside.any():
        return out
    try:
        factor = np.linalg.cholesky(normal[np.ix_(inside, inside)])
    except np.linalg.LinAlgError:
        return out  # J^T J is singular: no curvature to report
    # (L L^T)^-1 = L^-T L^-1, whose diagonal sums the columns of L^-1 squared
    factor_inv = np.linalg.solve(factor, np.eye(factor.shape[0]))
    out[inside] = np.sqrt(f / dof * np.sum(factor_inv**2, axis=0))
    return out


# ── Parameter derivatives ──────────────────────────────────────────────


def _kittel_derivative(kind: str, arrays: dict, k: int, h):
    """d omega_K / d gamma or d omega_K / d four_pi_m of the magnon in slot
    k at fields h (>= 0)."""
    gamma, four_pi_m = arrays["gamma"][k], arrays["four_pi_m"][k]
    root = np.sqrt(h * (h + four_pi_m))
    if kind == "gamma":
        return root
    # gamma h / (2 root): 0 at h = 0, where omega_K = 0 for every four_pi_m
    return np.divide(gamma * h, 2.0 * root, out=np.zeros(np.shape(root)), where=root > 0.0)


def _quadratic_forms(slots, arrays: dict, z, z_root_beta, h) -> list:
    """z^T (dH/dp) z per free parameter of slots, elementwise over arrays.

    z holds the per-mode components and z_root_beta = sum_k sqrt(beta_k)
    z_k (only read for beta, where p is sqrt(beta)); h broadcasts
    against z.
    """
    forms = []
    for kind, index in slots:
        zj = z[index[0]]
        if kind == "g":
            forms.append(2.0 * zj * z[index[1]])
        elif kind == "omega":
            forms.append(zj * zj)
        elif kind == "alpha":
            forms.append(-1j * zj * zj)
        elif kind == "beta":  # dH/ds_j: -2i s_j at (j, j), -i s_k at (j, k) and (k, j)
            forms.append(-2j * zj * z_root_beta)
        else:
            forms.append(zj * zj * _kittel_derivative(kind, arrays, index[0], h))
    return forms


def _map_columns(slots, arrays: dict, model, y, h) -> list:
    """d s21/dp per free parameter over one block of the map.

    i y^T (dH/dp) y, plus 2 (dw/ds_j) . y = 2 sqrt(2) y_j for
    s_j = sqrt(beta_j); model is the block's s21, y the kernel's
    per-mode solution arrays and h the block's fields as a column.
    """
    # sum_k sqrt(beta_k) y_k = s21 / sqrt(2), as w = sqrt(2) sqrt(beta)
    forms = _quadratic_forms(slots, arrays, y, model / math.sqrt(2.0), h)
    columns = []
    for form, (kind, index) in zip(forms, slots):
        column = 1j * form
        if kind == "beta":
            column += 2.0 * math.sqrt(2.0) * y[index[0]]
        columns.append(column)
    return columns


def _eigenvalue_derivatives(slots, arrays: dict, v, h) -> np.ndarray:
    """d lambda/dp = v^T (dH/dp) v / v^T v, shape (len(slots), len(v)).

    v holds one eigenvector per row, h its field; the result is not
    finite where v^T v = 0, as at an exceptional point.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        forms = _quadratic_forms(slots, arrays, list(v.T), v @ np.sqrt(arrays["beta"]), h)
        return np.array(forms).reshape(len(slots), len(v)) / np.sum(v * v, axis=1)


# ── Fits ───────────────────────────────────────────────────────────────


def _optimize(evaluate, problem: FitProblem, n_data: int) -> FitResult:
    """Run the search in internal coordinates (sqrt for beta) and report.

    evaluate takes the parameter values (beta itself, not its root) and
    returns (f, J^T r, J^T J), its beta columns taken with respect to
    sqrt(beta).
    """
    names = [p.name for p in problem.free]
    root = np.array([kind == "beta" for kind, _ in problem.slots], dtype=bool)

    def values(u: np.ndarray) -> np.ndarray:
        v = u.copy()
        v[root] = u[root] * u[root]
        return v

    def internal(v) -> np.ndarray:
        v = np.array(v, dtype=float)
        v[root] = np.sqrt(v[root])
        return v

    lower, upper, x0 = (internal([getattr(p, side) for p in problem.free])
                        for side in ("lower", "upper", "initial"))
    x, f, normal, iterations, converged, history = _levenberg_marquardt(
        lambda u: evaluate(values(u)), x0, lower, upper)
    stderr = _standard_errors(x, lower, upper, f, normal, n_data)
    stderr[root] *= 2.0 * x[root]
    return FitResult(params=dict(zip(names, values(x).tolist())), residual=f,
                     iterations=iterations, converged=converged,
                     stderr=dict(zip(names, stderr.tolist())), history=tuple(history))


def fit_branches(ridges: RidgeSet, problem: FitProblem) -> FitResult:
    """Fit free parameters so eigenbranch real parts meet the ridges.

    The residuals are each ridge frequency minus the real part of the
    nearest model eigenvalue at its field.
    """
    n_data = ridges.total()
    n_free = len(problem.free)
    if n_data < n_free + 2:
        raise DegenerateProblem(
            f"{n_data} ridge points cannot constrain {n_free} parameters (need >= {n_free + 2})"
        )
    counts = np.array([peaks.size for peaks in ridges.peaks])
    occupied = counts > 0
    fields = np.asarray(ridges.fields, dtype=float)[occupied]
    rows = np.repeat(np.arange(fields.size), counts[occupied])
    ridge = np.concatenate(ridges.peaks)
    h = fields[rows]

    def evaluate(values: np.ndarray):
        arrays = problem.arrays_at(values)
        eigenvalues, vectors = np.linalg.eig(_stack(arrays, fields)[0])
        real = eigenvalues.real[rows]
        nearest = np.argmin(np.abs(ridge[:, None] - real), axis=1)
        residual = ridge - real[np.arange(ridge.size), nearest]
        f = float(residual @ residual)
        v = vectors[rows, :, nearest]  # the nearest eigenvalue's eigenvector
        jac = -_eigenvalue_derivatives(problem.slots, arrays, v, h).real
        return f, jac @ residual, jac @ jac.T

    return _optimize(evaluate, problem, n_data)


def fit_map(data: SpectrumMap, problem: FitProblem) -> FitResult:
    """Fit free parameters against a full complex transmission map.

    The objective is sum |model - data|^2 over the grid; real and
    imaginary parts count as separate residuals for the error model.
    The model runs block by block as in compute_map, with the same
    SingularResponse, and only (f, J^T r, J^T J) accumulate, so no
    full-grid residual or Jacobian is held.
    """
    n_data = 2 * data.values.size
    if data.values.size < len(problem.free):
        raise DegenerateProblem(
            f"{data.values.size} map points cannot constrain {len(problem.free)} parameters"
        )
    slots = problem.slots

    def evaluate(values: np.ndarray):
        arrays = problem.arrays_at(values)
        f, grad, normal = 0.0, np.zeros(len(slots)), np.zeros((len(slots), len(slots)))

        def accumulate(block, model, y):
            nonlocal f, grad, normal
            misfit = (model - data.values[block]).view(np.float64).ravel()
            f += float(misfit @ misfit)
            if slots:
                columns = _map_columns(slots, arrays, model, y, data.fields[block, None])
                jac = np.stack(columns).view(np.float64).reshape(len(slots), -1)
                grad += jac @ misfit
                normal += jac @ jac.T

        _each_block(*_stack(arrays, data.fields), data.fields, data.freqs, accumulate)
        return f, grad, normal

    return _optimize(evaluate, problem, n_data)


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


def damping_guess_from_column(spectrum: SpectrumMap) -> float:
    """Total damping (alpha + beta) from the FWHM of |s21|^2 in the column
    DAMPING_GUESS_COLUMN.

    The strongest peak's full width at half maximum equals twice the
    total damping of an isolated mode; callers splitting the result
    between alpha and beta typically halve it again.
    """
    power = np.abs(spectrum.values[DAMPING_GUESS_COLUMN]) ** 2
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
