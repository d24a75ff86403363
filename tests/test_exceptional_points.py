"""Transmission near exceptional points and under pivoting stress.

The stripline cross-term -i sqrt(beta_j beta_k) is a dissipative
coupling, so the coupling matrix can become defective: at an
exceptional point (EP) two eigenvalues and their eigenvectors coalesce
and s21 acquires a double pole.  The systems below are placed a
distance delta (in the coherent coupling) from an exact EP and probed
across both branches.  Every probe must either match the independent
steady-state oracle or raise SingularResponse exactly where the plain
SVD guard does.  Hypothesis runs derandomized, so failures reproduce.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cavmag.core import (
    SINGULAR_COND_LIMIT,
    HybridSystem,
    ModeSpec,
    build_coupling_hamiltonian,
    canonical_three_mode,
    eigenbranches,
    s21,
)
from cavmag.errors import SingularResponse
from cavmag.synth import s21_sum_oracle

DELTAS = (0.0, 1e-12, 1e-10, 1e-8, 1e-6, 1e-4, 1e-2, 1e-1)
ORACLE_RTOL = 1e-10


def two_mode_ep(omega1, alpha1, beta1, alpha2, beta2, delta):
    """Two modes with H12 = i (H11 - H22) / 2 (an EP) at delta = 0."""
    gamma1, gamma2 = alpha1 + beta1, alpha2 + beta2
    omega2 = omega1 + 2.0 * math.sqrt(beta1 * beta2)
    g = (gamma1 - gamma2) / 2.0 + delta
    modes = (ModeSpec("a", omega1, alpha1, beta1), ModeSpec("b", omega2, alpha2, beta2))
    return HybridSystem(modes, {(0, 1): g})


def three_mode_ep(omega_r, alpha_r, beta_r, alpha_m, beta_m, delta):
    """Two identical magnons on one resonator, at an EP for delta = 0.

    The stripline vector lies in the magnons' symmetric subspace; there
    the matrix reduces to the 2x2 block [[H00 + H02, sqrt(2) H01],
    [sqrt(2) H01, H11]], which the magnon frequency and the coupling
    below make defective.
    """
    omega_m = omega_r - 2.0 * math.sqrt(2.0 * beta_m * beta_r)
    g = (alpha_m + 2.0 * beta_m - (alpha_r + beta_r)) / (2.0 * math.sqrt(2.0)) + delta
    magnon = ModeSpec("m1", omega_m, alpha_m, beta_m)
    return canonical_three_mode(magnon, ModeSpec("r", omega_r, alpha_r, beta_r),
                                ModeSpec("m2", omega_m, alpha_m, beta_m), g, g)


def unscreened_guard(system, omega):
    """SingularResponse message of the plain SVD guard, or None."""
    ham = build_coupling_hamiltonian(system)
    cond = np.linalg.cond(1j * (omega * np.eye(system.n) - ham))
    if np.isfinite(cond) and cond <= SINGULAR_COND_LIMIT:
        return None
    return (f"response matrix numerically singular at omega={omega!r} "
            f"(estimated condition number {cond:.3e})")


def check_probe(system, omega):
    expected = unscreened_guard(system, omega)
    if expected is not None:
        with pytest.raises(SingularResponse) as info:
            s21(system, omega)
        assert str(info.value) == expected
        return
    value = s21(system, omega)
    reference = s21_sum_oracle(system, omega)
    assert abs(value - reference) <= ORACLE_RTOL * abs(reference), (value, reference)


def probes(system, offsets):
    """Probes around the EP centre and around each branch, in units of the
    largest branch width."""
    branches = eigenbranches(system)
    width = float(np.max(-branches.imag))
    centre = float(np.mean(branches.real))
    anchors = [centre, *branches.real]
    return [float(anchor + c * width) for anchor in anchors for c in offsets]


rates = st.floats(1e-3, 0.1)
offsets = st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=4)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(omega=st.floats(20.0, 40.0), alpha1=rates, beta1=rates, alpha2=rates, beta2=rates,
       delta=st.sampled_from(DELTAS), offsets=offsets)
@example(omega=29.2, alpha1=0.0, beta1=0.0, alpha2=0.0, beta2=0.0, delta=0.0, offsets=[0.0])
def test_two_mode_ep_matches_oracle_or_guard(omega, alpha1, beta1, alpha2, beta2, delta,
                                             offsets):
    system = two_mode_ep(omega, alpha1, beta1, alpha2, beta2, delta)
    for w in probes(system, offsets):
        check_probe(system, w)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(omega=st.floats(20.0, 40.0), alpha_r=rates, beta_r=rates, alpha_m=rates, beta_m=rates,
       delta=st.sampled_from(DELTAS), offsets=offsets)
def test_three_mode_ep_matches_oracle_or_guard(omega, alpha_r, beta_r, alpha_m, beta_m, delta,
                                               offsets):
    system = three_mode_ep(omega, alpha_r, beta_r, alpha_m, beta_m, delta)
    for w in probes(system, offsets):
        check_probe(system, w)


@pytest.mark.parametrize("make", [two_mode_ep, three_mode_ep])
def test_constructions_sit_on_an_ep(make):
    # near an EP the closest eigenvalue pair splits like sqrt(delta), not
    # linearly as at an ordinary degeneracy, and at delta = 0 it coalesces
    def split(delta):
        values = eigenbranches(make(29.2, 0.01, 0.02, 0.005, 0.004, delta))
        return np.min(np.abs(values[:, None] - values[None, :]) + np.eye(values.size))

    assert split(0.0) < 1e-7
    assert abs(split(1e-6) / split(1e-8) - 10.0) < 0.5


def test_tiny_leading_pivot_needs_row_exchange():
    # mode a, nearly lossless, is probed on resonance: the leading entry
    # of the response matrix is -(alpha + beta) = -2e-14 while the rest of
    # its column is O(g); elimination without row exchanges loses every
    # digit here, and in the three-mode case the pivot sits two rows down
    a = ModeSpec("a", 29.2, 1e-14, 1e-14)
    b = ModeSpec("b", 29.5, 0.01, 0.02)
    c = ModeSpec("c", 28.9, 0.02, 0.01)
    for system in (HybridSystem((a, b), {(0, 1): 0.3}),
                   HybridSystem((a, b, c), {(0, 2): 0.3, (1, 2): 0.2})):
        ham = build_coupling_hamiltonian(system)
        m = 1j * (29.2 * np.eye(system.n) - ham)
        assert abs(m[0, 0]) < 1e-13 * np.max(np.abs(m))
        assert unscreened_guard(system, 29.2) is None
        value = s21(system, 29.2)
        reference = s21_sum_oracle(system, 29.2)
        assert abs(value - reference) <= ORACLE_RTOL * abs(reference)
