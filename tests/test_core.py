"""Core model: mode validation, Kittel dispersion, coupling matrix, s21."""

import math

import numpy as np
import pytest

from cavmag.core import (
    PERMALLOY,
    YIG,
    HybridSystem,
    KittelMaterial,
    ModeSpec,
    build_coupling_hamiltonian,
    canonical_three_mode,
    eigenbranches,
    field_for_frequency,
    kittel_frequency,
    kittel_slope,
    lambda_to_beta,
    s21,
    sort_eigenvalues,
    stripline_vector,
)
from cavmag.errors import (
    EigenFailure,
    InvalidSystem,
    NegativeField,
    NegativeFrequency,
    SingularResponse,
)

# Frozen dispersion values, computed independently from the closed form
# omega = gamma * sqrt(h * (h + four_pi_m)) at h = 1000 Oe.
KITTEL_YIG_1000 = 29.18629815512752
KITTEL_PY_1000 = 10.141934726668278
# Fields where each film's dispersion meets omega = 29.2, from the
# rationalized inverse (quadratic in h, positive root).
CROSS_PY_29_2 = 5879.015115345802
CROSS_YIG_29_2 = 1000.6885787966239


# ── Mode and system validation ─────────────────────────────────────────


def test_mode_rejects_negative_rates():
    with pytest.raises(InvalidSystem, match="alpha"):
        ModeSpec("m", 29.2, -0.01, 0.02)
    with pytest.raises(InvalidSystem, match="beta"):
        ModeSpec("m", 29.2, 0.01, -0.02)
    with pytest.raises(InvalidSystem, match="omega"):
        ModeSpec("m", math.nan, 0.01, 0.02)


def test_material_rejects_nonpositive_constants():
    with pytest.raises(InvalidSystem, match="gamma"):
        KittelMaterial(gamma=0.0, four_pi_m=1750.0)
    with pytest.raises(InvalidSystem, match="four_pi_m"):
        KittelMaterial(gamma=1.76e-2, four_pi_m=-1.0)


def test_system_normalizes_coupling_orientation():
    a = ModeSpec("a", 29.0, 0.01, 0.02)
    b = ModeSpec("b", 29.4, 0.01, 0.02)
    system = HybridSystem((a, b), {(1, 0): 0.2})
    assert system.g(0, 1) == 0.2
    assert system.g(1, 0) == 0.2
    assert system.g(0, 0) == 0.0


def test_system_needs_a_mode():
    for modes in ((), []):
        with pytest.raises(InvalidSystem, match="^a hybrid system needs at least one mode$"):
            HybridSystem(modes)


def test_system_rejects_bad_couplings():
    a = ModeSpec("a", 29.0, 0.01, 0.02)
    b = ModeSpec("b", 29.4, 0.01, 0.02)
    with pytest.raises(InvalidSystem, match="unknown mode 2"):
        HybridSystem((a, b), {(0, 2): 0.1})
    for value in (0.1, 0.0):  # a self-coupling is rejected at any value
        with pytest.raises(InvalidSystem, match="self-coupling"):
            HybridSystem((a, b), {(1, 1): value})
    with pytest.raises(InvalidSystem, match="twice"):
        HybridSystem((a, b), {(0, 1): 0.1, (1, 0): 0.2})
    with pytest.raises(InvalidSystem, match="twice"):  # a repeat as written is seen in a sequence
        HybridSystem((a, b), [((0, 1), 0.1), ((0, 1), 0.2)])
    with pytest.raises(InvalidSystem, match="unique"):
        HybridSystem((a, ModeSpec("a", 29.4, 0.01, 0.02)))
    # malformed keys end at construction, not in a traceback from s21
    for key, shown in [((0, 1.0), "unknown mode 1.0"), ((True, 1), "unknown mode True"),
                       ((0, 1, 2), "not a pair of modes"), ("ab", "not a pair of modes")]:
        with pytest.raises(InvalidSystem, match=shown):
            HybridSystem((a, b), {key: 0.1})
    for value in (True, 1j, math.nan, "0.1"):
        with pytest.raises(InvalidSystem, match="must be a finite real"):
            HybridSystem((a, b), {(0, 1): value})
    with pytest.raises(InvalidSystem, match="not a .pair, g. item"):
        HybridSystem((a, b), [(0, 1, 0.1)])


@pytest.mark.parametrize("dampings, shown", [
    ([(0.01, 1e308)], "'a': damping overflows the coupling matrix (alpha=0.01, beta=1e+308)"),
    ([(1e308, 1e308)], "'a': damping overflows the coupling matrix (alpha=1e+308, beta=1e+308)"),
    ([(0.0, 0.02), (0.0, 1e160), (0.0, 1e160)],
     "'b': damping overflows the coupling matrix (alpha=0, beta=1e+160)"),
    # 'a' overflows only against the larger beta: each beta times the largest
    ([(0.0, 1e150), (0.0, 1e160)],
     "'a': damping overflows the coupling matrix (alpha=0, beta=9.9999999999999998e+149)"),
])
def test_system_rejects_dampings_that_overflow_the_coupling_matrix(dampings, shown):
    # alpha + beta or a stripline product beta_j beta_k would be inf: s21
    # and eigenbranches would warn and read inf, so construction refuses
    modes = [ModeSpec(label, 29.0, alpha, beta) for label, (alpha, beta) in zip("abc", dampings)]
    with pytest.raises(InvalidSystem) as info:
        HybridSystem(tuple(modes))
    assert str(info.value) == "mode " + shown


def test_canonical_three_mode_order_and_corner():
    m1 = ModeSpec("m1", 28.9, 0.02, 0.006)
    r = ModeSpec("r", 29.2, 0.01, 0.02)
    m2 = ModeSpec("m2", 29.5, 0.005, 0.004)
    system = canonical_three_mode(m1, r, m2, 0.2, 0.21)
    assert [m.label for m in system.modes] == ["m1", "r", "m2"]
    assert system.g(0, 1) == 0.2
    assert system.g(1, 2) == 0.21
    # the magnons talk only through the resonator
    assert system.g(0, 2) == 0.0


# ── Kittel dispersion ──────────────────────────────────────────────────


def test_kittel_worked_values():
    assert math.isclose(kittel_frequency(YIG, 1000.0), KITTEL_YIG_1000, rel_tol=1e-12)
    assert math.isclose(kittel_frequency(PERMALLOY, 1000.0), KITTEL_PY_1000, rel_tol=1e-12)
    assert kittel_frequency(YIG, 0.0) == 0.0


def test_kittel_array_matches_scalars():
    fields = np.array([10.0, 500.0, 1000.0, 4000.0])
    out = kittel_frequency(YIG, fields)
    assert out.shape == fields.shape
    for h, w in zip(fields, out):
        assert kittel_frequency(YIG, float(h)) == w


def test_kittel_rejects_negative_field():
    with pytest.raises(NegativeField):
        kittel_frequency(YIG, -1.0)
    with pytest.raises(NegativeField):
        kittel_frequency(YIG, np.array([10.0, -2.0]))


@pytest.mark.parametrize("call, error, text", [
    (lambda: kittel_frequency(YIG, [1000, -10**400]), NegativeField,
     "applied field must be finite and >= 0, got -inf"),
    (lambda: kittel_frequency(YIG, np.array([1000.0, math.nan])), NegativeField,
     "applied field must be finite and >= 0, got nan"),
    (lambda: kittel_slope(YIG, [800.0, 0.0, -1.0]), NegativeField,
     "applied field must be finite and > 0, got 0.0"),
    (lambda: field_for_frequency(YIG, np.array([1.0, -1.0])), NegativeFrequency,
     "target frequency must be finite and >= 0, got -1.0"),
    (lambda: field_for_frequency(YIG, [29.2, math.inf]), NegativeFrequency,
     "target frequency must be finite and >= 0, got inf"),
    (lambda: kittel_frequency(YIG, -1), NegativeField,  # a scalar is named as given
     "applied field must be finite and >= 0, got -1"),
    (lambda: field_for_frequency(YIG, -0.1), NegativeFrequency,
     "target frequency must be finite and >= 0, got -0.1"),
], ids=["int_past_float", "nan", "zero_slope", "array_frequency", "list_frequency",
        "scalar_field", "scalar_frequency"])
def test_field_and_frequency_errors_name_the_first_bad_value_as_a_float(call, error, text):
    # not numpy's repr (np.float64(-inf)), nor the whole input (array([ 1., -1.]))
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == text


def test_field_for_frequency_crossings():
    assert math.isclose(field_for_frequency(PERMALLOY, 29.2), CROSS_PY_29_2, rel_tol=1e-12)
    assert math.isclose(field_for_frequency(YIG, 29.2), CROSS_YIG_29_2, rel_tol=1e-12)
    assert field_for_frequency(YIG, 0.0) == 0.0
    with pytest.raises(NegativeFrequency):
        field_for_frequency(YIG, -0.1)


@pytest.mark.parametrize("material, omega, label, shown", [
    (KittelMaterial(gamma=1.76e-2, four_pi_m=1e308), 29.2, "yig", "29.199999999999999"),
    (KittelMaterial(gamma=1e-300, four_pi_m=1750.0), np.array([1e-310, 2.0]), None, "2"),
])
def test_field_for_frequency_overflow_names_magnon_and_frequency(material, omega, label, shown):
    # (4 pi M)^2 or (omega / gamma)^2 overflows; the root would read 0 or nan
    magnon = "" if label is None else f"magnon {label!r}: "
    with pytest.raises(InvalidSystem, match=f"^{magnon}Kittel field overflows at omega={shown}$"):
        field_for_frequency(material, omega, label)


def test_dispersion_round_trip():
    rng = np.random.default_rng(42)
    fields = rng.uniform(1e-3, 2e4, 200)
    for material in (YIG, PERMALLOY):
        back = field_for_frequency(material, kittel_frequency(material, fields))
        assert np.max(np.abs(back - fields) / fields) < 1e-12


def test_kittel_slope_matches_finite_difference():
    for material, h in ((YIG, 800.0), (PERMALLOY, 5000.0)):
        dh = 1e-4 * h
        numeric = (kittel_frequency(material, h + dh) - kittel_frequency(material, h - dh)) / (2 * dh)
        assert math.isclose(kittel_slope(material, h), numeric, rel_tol=1e-7)
    with pytest.raises(NegativeField):
        kittel_slope(YIG, 0.0)
    for h in (math.nan, math.inf, -math.inf):  # as kittel_frequency, not "slope overflows at h=nan"
        with pytest.raises(NegativeField, match=f"^applied field must be finite and > 0, got {h!r}$"):
            kittel_slope(YIG, h)
    with pytest.raises(NegativeField, match="^applied field must be finite and > 0, got .*nan"):
        kittel_slope(YIG, np.array([800.0, math.nan]))


# ── Stripline coupling ─────────────────────────────────────────────────


def test_lambda_to_beta():
    assert lambda_to_beta(0.5) == math.pi / 2.0
    assert lambda_to_beta(0.0) == 0.0
    assert lambda_to_beta(-0.5) == lambda_to_beta(0.5)
    with pytest.raises(InvalidSystem):
        lambda_to_beta(math.inf)


def test_stripline_vector():
    system = HybridSystem((
        ModeSpec("a", 29.0, 0.01, 0.04),
        ModeSpec("b", 29.4, 0.01, 0.09),
    ))
    expected = math.sqrt(2.0) * np.sqrt([0.04, 0.09])
    assert np.array_equal(stripline_vector(system), expected)


# ── Coupling matrix ────────────────────────────────────────────────────


def test_hamiltonian_entries_and_symmetry():
    m1 = ModeSpec("m1", 28.9, 0.02, 0.006)
    r = ModeSpec("r", 29.2, 0.01, 0.02)
    m2 = ModeSpec("m2", 29.5, 0.005, 0.004)
    system = canonical_three_mode(m1, r, m2, 0.2, 0.21)
    ham = build_coupling_hamiltonian(system)
    assert np.array_equal(ham, ham.T)  # complex symmetric, not Hermitian
    for j, mode in enumerate(system.modes):
        assert ham[j, j] == mode.omega - 1j * (mode.alpha + mode.beta)
    assert ham[0, 1] == 0.2 - 1j * math.sqrt(0.006 * 0.02)
    assert ham[1, 2] == 0.21 - 1j * math.sqrt(0.02 * 0.004)
    # corner entry is purely dissipative
    assert ham[0, 2] == -1j * math.sqrt(0.006 * 0.004)


# ── Transmission ───────────────────────────────────────────────────────


def test_single_mode_closed_form():
    alpha, beta, omega0 = 0.01, 0.02, 29.2
    system = HybridSystem((ModeSpec("one", omega0, alpha, beta),))
    on_resonance = s21(system, omega0)
    assert abs(on_resonance - (-2.0 * beta / (alpha + beta))) < 1e-14
    for omega in (28.7, 29.35, 30.1):
        expected = 2.0 * beta / (1j * (omega - omega0) - (alpha + beta))
        assert abs(s21(system, omega) - expected) < 1e-14


def test_s21_rejects_bad_probe():
    system = HybridSystem((ModeSpec("one", 29.2, 0.01, 0.02),))
    with pytest.raises(InvalidSystem):
        s21(system, math.nan)


def test_s21_singular_response():
    # lossless mode probed exactly on resonance: the 1x1 response matrix is 0
    system = HybridSystem((ModeSpec("one", 29.2, 0.0, 0.0),))
    with pytest.raises(SingularResponse):
        s21(system, 29.2)


# ── Eigenbranches ──────────────────────────────────────────────────────


def test_sort_eigenvalues_order():
    values = np.array([1.0 + 2.0j, 1.0 + 1.0j, 0.5 + 5.0j])
    out = sort_eigenvalues(values)
    assert np.array_equal(out, np.array([0.5 + 5.0j, 1.0 + 1.0j, 1.0 + 2.0j]))


def test_degenerate_lossless_splitting():
    # all three modes at 29.2, no damping: eigenvalues are
    # 29.2 and 29.2 +- sqrt(g1^2 + g2^2)
    m1 = ModeSpec("m1", 29.2, 0.0, 0.0)
    r = ModeSpec("r", 29.2, 0.0, 0.0)
    m2 = ModeSpec("m2", 29.2, 0.0, 0.0)
    system = canonical_three_mode(m1, r, m2, 0.2, 0.21)
    split = math.sqrt(0.2**2 + 0.21**2)  # = 0.29
    expected = np.array([29.2 - split, 29.2, 29.2 + split])
    values = eigenbranches(system)
    assert np.max(np.abs(values.imag)) < 1e-12
    assert np.allclose(values.real, expected, rtol=0.0, atol=1e-12)


def test_eigenbranches_turns_a_linalg_failure_into_eigen_failure(monkeypatch):
    def failing_eigvals(matrix):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvals", failing_eigvals)
    with pytest.raises(EigenFailure, match=r"^eigenvalue iteration failed for matrix ") as info:
        eigenbranches(HybridSystem((ModeSpec("cpw", 29.2, 0.01, 0.02),)))
    assert isinstance(info.value.__cause__, np.linalg.LinAlgError)


def test_eigenbranches_passive():
    rng = np.random.default_rng(3)
    for _ in range(25):
        modes = tuple(
            ModeSpec(f"m{k}", rng.uniform(25, 33), rng.uniform(0, 0.05), rng.uniform(0, 0.05))
            for k in range(3)
        )
        system = HybridSystem(modes, {(0, 1): rng.uniform(0, 0.4), (1, 2): rng.uniform(0, 0.4)})
        assert np.max(eigenbranches(system).imag) <= 1e-12
