"""Independent transmission oracles, synthetic data, passivity checks.

The two oracles recompute s21 through deliberately separate code paths:
a mode-by-mode steady-state elimination (no shared matrix assembly with
the production route) and an adjugate/determinant formula for the
three-mode case.  They exist to cross-check the linear-solve route and
must never be folded into it.

Synthetic maps add seeded i.i.d. complex Gaussian noise from numpy's
counter-based Philox generator (Philox4x32-10): one standard-normal
block of shape (n_fields, n_freqs, 2) is drawn in row-major order, the
last axis holding the real and imaginary components.  A given seed and
grid shape therefore reproduces the same map bit for bit on one host,
regardless of how the noise-free part was scheduled; numpy's SIMD level
changes the last bits of the noise-free part (and so of the map).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    SINGULAR_COND_LIMIT,
    HybridSystem,
    _real_fields,
    _transmission,
    build_coupling_hamiltonian,
    stripline_vector,
)
from .errors import InvalidSystem, SingularResponse
from .sweep import SpectrumMap, SystemTemplate, compute_map

# Violations beyond this are flagged by passivity_check.
PASSIVITY_TOL = 1e-9


# ── Transmission oracles ───────────────────────────────────────────────


def _gauss_solve(matrix: list[list[complex]], rhs: list[complex]) -> list[complex]:
    """Gaussian elimination with partial pivoting on plain complex lists."""
    n = len(rhs)
    a = [row[:] + [rhs[i]] for i, row in enumerate(matrix)]
    scale = max((abs(a[i][j]) for i in range(n) for j in range(n)), default=0.0)
    if scale == 0.0:
        raise SingularResponse("steady-state system is identically zero")
    for col in range(n):
        pivot_row = max(range(col, n), key=lambda r: abs(a[r][col]))
        pivot = a[pivot_row][col]
        if abs(pivot) <= 1e-14 * scale:
            raise SingularResponse(
                f"steady-state elimination hit a vanishing pivot (|{abs(pivot):.3e}| "
                f"against scale {scale:.3e})"
            )
        a[col], a[pivot_row] = a[pivot_row], a[col]
        for r in range(col + 1, n):
            factor = a[r][col] / pivot
            if factor == 0:
                continue
            for c in range(col, n + 1):
                a[r][c] -= factor * a[col][c]
    x = [0j] * n
    for r in range(n - 1, -1, -1):
        acc = a[r][n]
        for c in range(r + 1, n):
            acc -= a[r][c] * x[c]
        x[r] = acc / a[r][r]
    return x


def s21_sum_oracle(system: HybridSystem, omega: float) -> complex:
    """Transmission as the weighted sum over steady-state mode amplitudes.

    Writes the steady-state equation of each mode directly from its
    parameters, solves the set by partial-pivot elimination, and sums
    (2 / i) sqrt(beta_j) amplitude_j for unit drive.
    """
    n = system.n
    matrix: list[list[complex]] = [[0j] * n for _ in range(n)]
    rhs: list[complex] = [0j] * n
    for j, mode in enumerate(system.modes):
        matrix[j][j] = omega - mode.omega + 1j * (mode.alpha + mode.beta)
        for k, other in enumerate(system.modes):
            if k == j:
                continue
            matrix[j][k] = -(system.g(j, k) - 1j * math.sqrt(mode.beta * other.beta))
        rhs[j] = math.sqrt(mode.beta)
    amplitudes = _gauss_solve(matrix, rhs)
    total = sum(math.sqrt(m.beta) * amp for m, amp in zip(system.modes, amplitudes))
    return complex(2.0 / 1j * total)


def s21_cramer_oracle(system: HybridSystem, omega: float) -> complex:
    """Three-mode transmission via the explicit adjugate and determinant.

    Accurate to about 1e-10 relative for condition numbers below 1e8;
    raises SingularResponse when the determinant underflows relative to
    the matrix scale.
    """
    if system.n != 3:
        raise InvalidSystem(f"adjugate oracle is three-mode only, got n={system.n}")
    modes = system.modes
    m = [[0j] * 3 for _ in range(3)]
    for j in range(3):
        m[j][j] = 1j * (omega - modes[j].omega) - (modes[j].alpha + modes[j].beta)
        for k in range(3):
            if k == j:
                continue
            m[j][k] = -math.sqrt(modes[j].beta * modes[k].beta) - 1j * system.g(j, k)
    det = (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )
    scale = max(abs(m[j][k]) for j in range(3) for k in range(3))
    if abs(det) <= 1e-13 * scale**3:
        raise SingularResponse(
            f"adjugate oracle determinant underflows at omega={omega!r} "
            f"(|det|={abs(det):.3e}, scale={scale:.3e})"
        )
    adj = [
        [
            m[1][1] * m[2][2] - m[1][2] * m[2][1],
            m[0][2] * m[2][1] - m[0][1] * m[2][2],
            m[0][1] * m[1][2] - m[0][2] * m[1][1],
        ],
        [
            m[1][2] * m[2][0] - m[1][0] * m[2][2],
            m[0][0] * m[2][2] - m[0][2] * m[2][0],
            m[0][2] * m[1][0] - m[0][0] * m[1][2],
        ],
        [
            m[1][0] * m[2][1] - m[1][1] * m[2][0],
            m[0][1] * m[2][0] - m[0][0] * m[2][1],
            m[0][0] * m[1][1] - m[0][1] * m[1][0],
        ],
    ]
    w = [math.sqrt(2.0 * mode.beta) for mode in modes]
    total = sum(w[j] * adj[j][k] * w[k] for j in range(3) for k in range(3))
    return complex(total / det)


# ── Synthetic maps ─────────────────────────────────────────────────────


@dataclass(frozen=True)
class NoiseSpec:
    """Additive complex Gaussian noise: per-component sigma plus a seed."""

    sigma: float
    seed: int

    def __post_init__(self):
        _real_fields(self, ("sigma",), "noise ", ">= 0")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool) or not 0 <= self.seed < 2**64:
            raise InvalidSystem(f"seed must be an unsigned 64-bit integer, got {self.seed!r}")


def synth_map(template: SystemTemplate, fields, freqs, noise: NoiseSpec) -> SpectrumMap:
    """Noise-free map plus i.i.d. complex Gaussian noise (Philox-seeded).

    sigma applies to the real and imaginary parts independently; sigma 0
    returns the noise-free map unchanged.  Same spec, same map, bit for
    bit.  InvalidSystem if the noise overflows a value or its magnitude.
    """
    spectrum = compute_map(template, fields, freqs)
    if noise.sigma != 0.0:
        rng = np.random.Generator(np.random.Philox(key=noise.seed))
        draw = rng.standard_normal(spectrum.values.shape + (2,))
        with np.errstate(over="ignore"):
            spectrum.values[...] += noise.sigma * (draw[..., 0] + 1j * draw[..., 1])
            if not np.isfinite(np.abs(spectrum.values)).all():
                raise InvalidSystem(f"noise sigma {noise.sigma!r} overflows the map")
    return spectrum


# ── Passivity diagnostics ──────────────────────────────────────────────


@dataclass(frozen=True)
class PassivityReport:
    """Worst-case passivity indicators of a system over probe frequencies."""

    max_im_eigenvalue: float
    max_abs_one_plus_s21: float
    flagged: bool


def passivity_check(system: HybridSystem, omegas) -> PassivityReport:
    """Report passivity diagnostics; never raises.

    A passive system keeps every eigenvalue on or below the real axis
    and satisfies |1 + s21| <= 1 at every real frequency.  The check
    assembles the matrix without validation so deliberately broken
    systems produce a report (flagged) instead of an error.
    """
    with np.errstate(invalid="ignore"):
        ham = build_coupling_hamiltonian(system)
        weights = stripline_vector(system)
    try:
        eigenvalues = np.linalg.eigvals(ham)
        max_im = float(np.max(eigenvalues.imag)) if np.all(np.isfinite(eigenvalues)) else math.inf
    except np.linalg.LinAlgError:
        max_im = math.inf
    values, cond, _ = _transmission(ham[None], weights, np.asarray(omegas, dtype=float).ravel())
    magnitudes = np.abs(1.0 + values)
    if np.any(cond > SINGULAR_COND_LIMIT) or not np.all(np.isfinite(magnitudes)):
        worst = math.inf
    else:
        worst = float(np.max(magnitudes, initial=0.0))
    flagged = not (max_im <= PASSIVITY_TOL and worst <= 1.0 + PASSIVITY_TOL)
    return PassivityReport(max_im_eigenvalue=max_im, max_abs_one_plus_s21=worst, flagged=flagged)
