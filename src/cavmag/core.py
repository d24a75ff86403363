"""Coupled-mode model of stripline-driven magnon-photon hybrids.

The model is a set of N damped oscillators (magnon modes plus a photonic
resonator) that exchange energy coherently through real coupling
constants and dissipatively through their shared coupling to the
traveling stripline photons.  Four operations carry everything built on
top: the effective non-Hermitian coupling matrix, the complex
transmission s21, the sorted complex eigenvalue branches, and the
field-dependent ferromagnetic (Kittel) dispersion.

Both model records, HybridSystem and sweep.SystemTemplate, validate
through one rule into one read-only table of arrays (_model_table).
Every scalar of the package, in a record or at an entry point, passes
one check, _real, and is stored as the float it returns.

Units: mode frequencies, damping rates and couplings all share a single
model frequency unit, defined implicitly as whatever
``gamma * sqrt(h * (h + four_pi_m))`` yields with gamma in
(model unit)/Oe and h in Oe.  The unit is opaque but consistent across
the package; any display scaling is purely an output-formatting concern.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .errors import (
    EigenFailure,
    InvalidSystem,
    NegativeField,
    NegativeFrequency,
    SingularResponse,
)

# Estimated condition number beyond which a transmission solve is
# reported as singular instead of returned as roundoff noise.
SINGULAR_COND_LIMIT = 1e14
# A point goes to the SVD unless _cond_bound stays this factor below it.
_SCREEN_MARGIN = 10.0


def format_float(value: float) -> str:
    """'%.17g' text: enough digits for the value to read back exactly."""
    return "%.17g" % value


# ── Mode and system types ──────────────────────────────────────────────


def _real(value, what: str, bound: str = "") -> float:
    """value as a float: the one check of every model scalar.

    InvalidSystem unless value is an int or a float, not a bool, whose
    float is finite and meets bound ("", ">= 0" or "> 0"); an int too
    large for a float is rejected like inf.  what names the value.
    """
    number = math.nan
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:
            pass
    below = number <= 0 if bound == "> 0" else bound == ">= 0" and number < 0
    if not math.isfinite(number) or below:
        raise InvalidSystem(f"{what} must be a finite real{bound and ' ' + bound}, got {value!r}")
    return number


def _float_array(values) -> np.ndarray:
    """values as a float array, with an int too large for a float as inf
    of its sign: every finite check then rejects it, as _real does."""
    try:
        return np.asarray(values, dtype=float)
    except OverflowError:
        objects = np.asarray(values, dtype=object)
        return np.array([_float_or_inf(v) for v in objects.flat], dtype=float).reshape(objects.shape)


def _float_or_inf(value) -> float:
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _real_fields(record, names, prefix: str, bound: str = "") -> None:
    """Store each named field of a frozen record as _real of its value;
    the error names it as prefix + name."""
    for name in names:
        object.__setattr__(record, name, _real(getattr(record, name), prefix + name, bound))


@dataclass(frozen=True)
class ModeSpec:
    """One damped oscillator mode.

    omega is the resonance frequency, alpha the intrinsic damping rate
    and beta the extrinsic damping rate fed by the stripline, all in
    model frequency units.
    """

    label: str
    omega: float
    alpha: float
    beta: float

    def __post_init__(self):
        _real_fields(self, ("omega", "alpha", "beta"), f"mode {self.label!r}: ", ">= 0")


@dataclass(frozen=True)
class KittelMaterial:
    """Material constants of a ferromagnetic film.

    gamma is the gyromagnetic ratio in model frequency units per Oe;
    four_pi_m the saturation magnetization in G.
    """

    gamma: float
    four_pi_m: float

    def __post_init__(self):
        _real_fields(self, ("gamma", "four_pi_m"), "material constant ", "> 0")


def _check_dampings(labels, alpha, beta) -> None:
    """InvalidSystem for the first mode whose alpha + beta, or whose
    stripline product beta_j beta_k with any mode, overflows the coupling
    matrix.  labels and the float arrays alpha and beta run over the
    modes; both overflows only grow with the dampings.  A damping that is
    not finite in the first place is left to the mode's own check."""
    finite = np.isfinite(alpha) & np.isfinite(beta)
    beta_max = beta[finite].max(initial=0.0)  # bounds every beta_j beta_k
    with np.errstate(over="ignore", invalid="ignore"):  # inf * 0 where not finite
        bad = finite & ~(np.isfinite(alpha + beta) & np.isfinite(beta * beta_max))
    if bad.any():
        k = int(np.argmax(bad))
        raise InvalidSystem(f"mode {labels[k]!r}: damping overflows the coupling matrix "
                            f"(alpha={format_float(alpha[k])}, beta={format_float(beta[k])})")


# Film constants used by the shipped example configurations.
YIG = KittelMaterial(gamma=1.76e-2, four_pi_m=1750.0)
PERMALLOY = KittelMaterial(gamma=2.94e-3, four_pi_m=10900.0)


def _coupling_slots(names, key, g) -> tuple[int, int, float]:
    """Slots j < k of coupling key (a, b) among names (labels in a
    template, indices in a system), and g as a float: InvalidSystem
    unless a and b are two different names and g passes _real."""
    if not (isinstance(key, tuple) and len(key) == 2):
        raise InvalidSystem(f"coupling key {key!r} is not a pair of modes")
    for name in key:
        if type(name) not in (int, str) or name not in names:  # 1.0 and True equal 1
            raise InvalidSystem(f"coupling names unknown mode {name!r}")
    if key[0] == key[1]:
        raise InvalidSystem(f"self-coupling on {key[0]!r}")
    g = _real(g, f"coupling {key}")
    return (*sorted(names.index(name) for name in key), g)


def _model_table(labels, rows, couplings, pair_slots):
    """(arrays, couplings) of a model record: the one validation of both.

    rows holds (omega, alpha, beta, gamma, four_pi_m) per mode and
    pair_slots(key, g) is the record's _coupling_slots.  InvalidSystem
    unless labels are unique, dampings pass _check_dampings, each (key, g)
    item passes pair_slots and a repeated pair has one value.
    arrays is read-only: the columns of rows (no sqrt(beta), so broken
    modes warn nothing), the symmetric g and magnons, the (slot, label) of
    each mode with gamma != 0.  couplings maps (min(a, b), max(a, b)) to g.
    """
    if len(set(labels)) != len(labels):
        raise InvalidSystem(f"mode labels must be unique, got {labels}")
    arrays = dict(zip(("omega", "alpha", "beta", "gamma", "four_pi_m"), np.array(rows, dtype=float).T))
    _check_dampings(labels, arrays["alpha"], arrays["beta"])
    g = arrays["g"] = np.zeros((len(labels), len(labels)))
    normalized: dict[tuple, float] = {}
    for item in couplings.items() if isinstance(couplings, Mapping) else couplings:
        if not (isinstance(item, tuple) and len(item) == 2):
            raise InvalidSystem(f"coupling {item!r} is not a (pair, g) item")
        key, value = item
        j, k, value = pair_slots(key, value)
        pair = (min(key), max(key))
        if normalized.setdefault(pair, value) != value:
            raise InvalidSystem(f"coupling pair {pair} given twice with different values")
        g[j, k] = g[k, j] = value
    for column in arrays.values():
        column.flags.writeable = False
    arrays["magnons"] = tuple((k, labels[k]) for k in np.flatnonzero(arrays["gamma"]).tolist())
    return MappingProxyType(arrays), normalized


@dataclass(frozen=True)
class HybridSystem:
    """An ordered tuple of modes plus real coherent couplings.

    couplings maps index pairs to coupling constants (or lists (pair, g)
    items); both orientations of a pair denote the same value and are
    normalized to (low, high) keys on construction.  Absent pairs couple
    only dissipatively.  arrays is the table of _model_table.
    """

    modes: tuple[ModeSpec, ...]
    couplings: dict[tuple[int, int], float] = field(default_factory=dict)
    arrays: MappingProxyType = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.modes, tuple):
            object.__setattr__(self, "modes", tuple(self.modes))
        if not self.modes:
            raise InvalidSystem("a hybrid system needs at least one mode")
        rows = [(m.omega, m.alpha, m.beta, 0.0, 0.0) for m in self.modes]
        arrays, couplings = _model_table([m.label for m in self.modes], rows, self.couplings,
                                         lambda key, g: _coupling_slots(range(self.n), key, g))
        object.__setattr__(self, "arrays", arrays)
        object.__setattr__(self, "couplings", couplings)

    def __reduce__(self):  # a mappingproxy cannot be pickled: copies rebuild the table
        return HybridSystem, (self.modes, self.couplings)

    @property
    def n(self) -> int:
        return len(self.modes)

    def g(self, i: int, j: int) -> float:
        """Coherent coupling between modes i and j (0 if absent or i == j)."""
        return self.couplings.get((min(i, j), max(i, j)), 0.0)


def canonical_three_mode(
    magnon1: ModeSpec,
    resonator: ModeSpec,
    magnon2: ModeSpec,
    g1: float,
    g2: float,
) -> HybridSystem:
    """Three modes in the canonical order [magnon1, resonator, magnon2].

    The magnons talk to each other only through the resonator: the
    direct magnon-magnon coherent coupling is identically zero, while
    the dissipative stripline cross-term survives in the corner entries.
    """
    return HybridSystem((magnon1, resonator, magnon2), {(0, 1): g1, (1, 2): g2})


# ── Kittel dispersion ──────────────────────────────────────────────────


def _overflow_check(values, at, what: str, label: str | None) -> None:
    """InvalidSystem naming the first point at which values is not finite."""
    overflow = ~np.isfinite(values)
    if np.any(overflow):
        magnon = "" if label is None else f"magnon {label!r}: "
        raise InvalidSystem(f"{magnon}Kittel {what}={format_float(at[overflow][0])}")


def kittel_frequency(material: KittelMaterial, h, label: str | None = None):
    """Ferromagnetic resonance frequency at applied field h (Oe).

    omega = gamma * sqrt(h * (h + four_pi_m)), strictly increasing in h
    with omega(0) = 0.  Accepts a scalar or an ndarray of fields; for an
    array the error names the first offending field.  An omega that
    overflows raises InvalidSystem naming the field, and the magnon when
    its label is given.
    """
    return _kittel(material.gamma, material.four_pi_m, h, label)


def _checked(values, bound: str, error, what: str) -> np.ndarray:
    """values as a float array: error naming the first value that is not
    finite and bound (">= 0" or "> 0"), a scalar as given and an array
    entry as a Python float."""
    array = _float_array(values)
    bad = ~(np.isfinite(array) & ((array > 0.0) if bound == "> 0" else (array >= 0.0)))
    if np.any(bad):
        first = values if array.ndim == 0 else float(array[bad][0])
        raise error(f"{what} must be finite and {bound}, got {first!r}")
    return array


def _kittel(gamma, four_pi_m, h, label: str | None = None):
    """kittel_frequency from the material constants themselves."""
    h_arr = _checked(h, ">= 0", NegativeField, "applied field")
    with np.errstate(over="ignore"):
        out = gamma * np.sqrt(h_arr * (h_arr + four_pi_m))
    _overflow_check(out, h_arr, "frequency overflows at h", label)
    return float(out) if h_arr.ndim == 0 else out


def field_for_frequency(material: KittelMaterial, omega, label: str | None = None):
    """Applied field (Oe) at which the Kittel branch hits omega.

    Inverts the dispersion through the rationalized positive root
    h = 2 (omega/gamma)^2 / (4piM + sqrt((4piM)^2 + 4 (omega/gamma)^2)),
    which avoids cancellation for small omega.  A root that overflows
    raises InvalidSystem naming the frequency, and the magnon when its
    label is given.
    """
    w_arr = _checked(omega, ">= 0", NegativeFrequency, "target frequency")
    m4 = material.four_pi_m
    with np.errstate(over="ignore"):
        x = (w_arr / material.gamma) ** 2
        root = np.sqrt(m4 * m4 + 4.0 * x)
    _overflow_check(root, w_arr, "field overflows at omega", label)
    out = 2.0 * x / (m4 + root)
    return float(out) if w_arr.ndim == 0 else out


def kittel_slope(material: KittelMaterial, h, label: str | None = None):
    """Local derivative d omega / d h of the Kittel branch at field h;
    overflow raises InvalidSystem as in kittel_frequency."""
    h_arr = _checked(h, "> 0", NegativeField, "applied field")
    m4 = material.four_pi_m
    with np.errstate(over="ignore", invalid="ignore"):
        out = material.gamma * (2.0 * h_arr + m4) / (2.0 * np.sqrt(h_arr * (h_arr + m4)))
    _overflow_check(out, h_arr, "slope overflows at h", label)
    return float(out) if h_arr.ndim == 0 else out


# ── Stripline coupling ─────────────────────────────────────────────────


def lambda_to_beta(lam: float) -> float:
    """Extrinsic damping rate from a dimensionless stripline coupling.

    beta = 2 pi lambda^2; any finite real lambda is accepted, and a beta
    past the float range is inf, which the mode then rejects.
    """
    lam = _real(lam, "stripline coupling")
    return 2.0 * math.pi * (lam * lam)


def stripline_vector(system: HybridSystem) -> np.ndarray:
    """Drive-and-readout weight vector: sqrt(2) * sqrt(beta_j) per mode."""
    return math.sqrt(2.0) * np.sqrt(system.arrays["beta"])


# ── Coupling matrix, transmission, eigenbranches ───────────────────────


def build_coupling_hamiltonian(system: HybridSystem) -> np.ndarray:
    """Effective non-Hermitian coupling matrix of the hybrid system.

    Diagonal entries are omega_j - i (alpha_j + beta_j); off-diagonal
    entries combine the coherent coupling with the dissipative stripline
    cross-term, g(j, k) - i sqrt(beta_j beta_k).  The result is complex
    symmetric (equal to its own transpose), not Hermitian.  It is read
    from the table the system validated into (_model_table), so nothing
    is checked here: passivity diagnostics rely on this to report on
    deliberately broken systems instead of raising.
    """
    arrays = system.arrays
    return _coupling_matrix(arrays["omega"], arrays["alpha"], arrays["beta"], arrays["g"])


def _coupling_matrix(omega, alpha, beta, g) -> np.ndarray:
    """The coupling matrix from omega, alpha and beta per mode and the real
    symmetric couplings g: the one expression behind every H."""
    loss = np.sqrt(np.outer(beta, beta))
    # the diagonal must be exactly alpha + beta, not sqrt(beta**2) + alpha
    np.fill_diagonal(loss, alpha + beta)
    return np.diag(omega) + g - 1j * loss


def _cond_bound(hams: np.ndarray, freqs: np.ndarray) -> np.ndarray:
    """Upper bound, (F, W), on the 2-norm condition number of M = i (omega I - H).

    H is complex symmetric, so C = Re H and L = -Im H are real symmetric:
    (a) sigma_min(M) >= dist(omega, eig C) - ||L||_2 (Weyl; i (omega I - C)
    is normal), (b) sigma_min(M) >= lambda_min(L) (||M x|| >= |x* M x| >=
    x* L x for |x| = 1) and (c) ||M||_2 <= |omega| + ||H||_F.  Bound: (c) /
    (max(a, b) - 8 n eps (max |omega| + ||H||_F)), inf where <= 0, NaN where
    ||H||_F is not finite; fields (b) keeps below the screen threshold skip (a).
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        h_norm = np.linalg.norm(hams, axis=(1, 2))
        finite = np.isfinite(h_norm)  # false if H has a non-finite entry or |h|^2 overflows
        safe = np.where(finite[:, None, None], hams, 0.0)  # eigvalsh needs finite input
        l_eig = np.linalg.eigvalsh(-safe.imag)
        w_abs = np.abs(freqs)
        reach = w_abs.max(initial=0.0) + h_norm
        slack = 8 * hams.shape[-1] * np.finfo(float).eps * reach
        floor = l_eig[:, 0] - slack
        cond = (w_abs + h_norm[:, None]) / floor[:, None]  # NaN where not finite
        rows = np.flatnonzero(finite & (floor * (SINGULAR_COND_LIMIT / _SCREEN_MARGIN) <= reach))
        if rows.size:
            c_eig = np.linalg.eigvalsh(safe[rows].real)
            dist = np.abs(freqs - c_eig[:, :, None]).min(axis=1)
            dist -= (np.maximum(-l_eig[rows, 0], l_eig[rows, -1]) + slack[rows])[:, None]
            np.maximum(dist, floor[rows, None], out=dist)
            cond[rows] = np.where(dist > 0.0, (w_abs + h_norm[rows, None]) / dist, np.inf)
        return cond


def _kernel_work(n: int, fields: int, freqs: int):
    """Work of _transmission for n modes on grids up to fields x freqs:
    one (fields, freqs) slot per entry of [M | w], and a scratch slot.

    The scratch slot is a separate array so that the largest array a sweep
    frees stays the size of [M | w]: glibc raises its mmap and trim
    thresholds to the largest block freed, and one slot more raised the
    peak RSS of the map_full benchmark by about 3 MB.
    """
    return np.empty((n, n + 1, fields, freqs), dtype=complex), np.empty((fields, freqs), dtype=complex)


def _transmission(hams: np.ndarray, weights: np.ndarray, freqs: np.ndarray, work=None):
    """Transmission and guard condition number on a (field, frequency) grid.

    hams is an (F, n, n) stack of coupling matrices, weights the
    stripline vector w and freqs the W probe frequencies.  Each response
    matrix M = i (omega I - H) is factored P M = L U by Gaussian
    elimination with partial pivoting (largest |re| + |im|, first on
    ties, as in LAPACK; a NaN wins, the first one if several, as under
    argmax), run entry by entry on (F, W) arrays, so every grid point
    goes through the same arithmetic whatever the grid shape.  The pivot
    row is picked by strict > comparisons down the candidate rows; the
    NaN test runs only on a call whose candidates hold a NaN.
    Returns (values, cond, x): values and cond are (F, W), with
    values = w . x for M x = w, and x is the list of the n per-mode (F, W)
    arrays of the back substitution, returned as computed (the map fit
    builds its exact Jacobian from them).

    Only the diagonal of M depends on the frequency: the other entries
    stay (F, 1) arrays, and w (1, 1), until an update or a row exchange
    writes them, and rows are exchanged only where a point pivots.
    Written entries live in work, the arrays of _kernel_work(n, F', W)
    with F' >= F that a sweep passes to every block; by default the call
    allocates its own.

    cond is the 2-norm condition number of M wherever it could matter:
    the SVD value (np.linalg.cond; inf for a non-finite M) replaces the
    bound of _cond_bound where it does not clear the screen threshold.
    """
    n = hams.shape[-1]
    grid = (hams.shape[0], freqs.size)
    if work is None:
        work = _kernel_work(n, *grid)
    full, tmp = work
    slots, tmp = full[:, :, : grid[0]], tmp[: grid[0]]
    slot = [list(row) for row in slots]  # slot[i][j] holds entry (i, j) once written
    diag = full.reshape((n * (n + 1),) + full.shape[2:])[:: n + 2, : grid[0]]  # slots (i, i)

    def own(i, j):
        """Move entry (i, j) into its slot, expanding it over the grid."""
        if a[i][j] is not slot[i][j]:
            np.copyto(slot[i][j], a[i][j])
            a[i][j] = slot[i][j]

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # off the diagonal M is i (0 omega - H_ij): one column for every
        # omega unless 0 omega differs in its bits (negative or non-finite omega)
        zero = 0.0 * freqs
        bits = zero.view(np.uint64)
        if zero.size and (bits == bits[0]).all():
            zero = zero[:1]
        const = 1j * (zero - hams.transpose(1, 2, 0)[..., None])
        np.subtract(freqs, hams.diagonal(axis1=1, axis2=2).T[..., None], out=diag)
        np.multiply(1j, diag, out=diag)
        # a[i][j] is entry (i, j) of M over the grid; column n carries w
        a = [list(row) + [w] for row, w in zip(const, weights.astype(complex)[:, None, None])]
        for i in range(n):
            a[i][i] = slot[i][i]
        for k in range(n - 1):
            for r in range(k + 1, n):
                own(r, k)
            parts = np.abs(slots[k:, k].view(np.float64))
            size = parts[..., 0::2] + parts[..., 1::2]
            # swaps[c] marks the points whose pivot is row k + 1 + c: the
            # row beats every row above it, and no row below beats it
            best, swaps = size[0], []
            has_nan = math.isnan(size.sum())  # sizes are >= 0: NaN only from a NaN
            for c in range(1, n - k):
                beats = size[c] > best
                if has_nan:  # the first NaN wins, as under argmax
                    beats |= np.isnan(size[c]) & ~np.isnan(best)
                for swap in swaps:
                    swap &= ~beats
                swaps.append(beats)
                if c < n - k - 1:
                    best = np.maximum(best, size[c])  # keeps a NaN
            for r, swap in enumerate(swaps, k + 1):
                for j in range(k, n + 1) if swap.any() else ():  # left of k is only L
                    own(k, j)
                    own(r, j)
                    np.copyto(tmp, a[k][j])
                    np.copyto(a[k][j], a[r][j], where=swap)
                    np.copyto(a[r][j], tmp, where=swap)
            slots[k + 1 :, k] /= slots[k, k]  # the multipliers, stored where L goes
            for r in range(k + 1, n):
                for j in range(k + 1, n + 1):
                    np.multiply(a[r][k], a[k][j], out=tmp)
                    a[r][j] = np.subtract(a[r][j], tmp, out=slot[r][j])
        x = [None] * n
        for i in reversed(range(n)):
            acc = a[i][n]
            for j in range(i + 1, n):
                acc = acc - a[i][j] * x[j]
            x[i] = acc / a[i][i]
        values = weights[0] * x[0]
        for i in range(1, n):
            values = values + weights[i] * x[i]
        cond = _cond_bound(hams, freqs)
        suspect = ~(cond < SINGULAR_COND_LIMIT / _SCREEN_MARGIN)
        if suspect.any():
            fi, wi = np.nonzero(suspect)
            m = 1j * (freqs[wi, None, None] * np.eye(n) - hams[fi])
            finite = np.all(np.isfinite(m), axis=(1, 2))
            exact = np.full(fi.size, np.inf)
            exact[finite] = np.linalg.cond(m[finite])
            cond[suspect] = exact
    return values, cond, x


def s21(system: HybridSystem, omega: float) -> complex:
    """Complex transmission coefficient at probe frequency omega.

    Solves i (omega I - H) x = w by partial-pivot elimination and
    returns w . x, where w is the stripline weight vector: the
    single-point call of the kernel that computes whole maps, so a map
    entry equals the matching s21 bit for bit.  SingularResponse is
    decided by the SVD condition number, computed only where the
    passivity bound of _cond_bound cannot clear the limit.
    """
    omega = _real(omega, "probe frequency")
    ham = build_coupling_hamiltonian(system)
    values, cond, _ = _transmission(ham[None], stripline_vector(system), np.array([omega]))
    if cond[0, 0] > SINGULAR_COND_LIMIT:
        raise SingularResponse(
            f"response matrix numerically singular at omega={omega!r} "
            f"(estimated condition number {cond[0, 0]:.3e})"
        )
    return complex(values[0, 0])


def sort_eigenvalues(values: np.ndarray) -> np.ndarray:
    """Deterministic branch order along the last axis: ascending real part,
    then imaginary."""
    order = np.lexsort((values.imag, values.real), axis=-1)
    return np.take_along_axis(values, order, axis=-1)


def eigenbranches(system: HybridSystem) -> np.ndarray:
    """Complex eigenvalues of the coupling matrix, in sorted branch order.

    For passive systems (all damping rates nonnegative) every eigenvalue
    sits on or below the real axis up to roundoff.
    """
    ham = build_coupling_hamiltonian(system)
    try:
        values = np.linalg.eigvals(ham)
    except np.linalg.LinAlgError as exc:
        raise EigenFailure(f"eigenvalue iteration failed for matrix {ham!r}") from exc
    return sort_eigenvalues(values)
