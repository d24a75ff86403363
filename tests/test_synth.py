"""Transmission oracles, seeded synthetic maps, passivity diagnostics."""

import math

import numpy as np
import pytest

from cavmag.core import PERMALLOY, YIG, HybridSystem, ModeSpec, canonical_three_mode, s21
from cavmag import sweep
from cavmag.errors import InvalidSystem
from cavmag.sweep import SystemTemplate, TemplateMagnon, compute_map
from cavmag.synth import (
    PASSIVITY_TOL,
    NoiseSpec,
    PassivityReport,
    passivity_check,
    s21_cramer_oracle,
    s21_sum_oracle,
    synth_map,
)

# Pinned regression anchor: canonical [magnon, resonator, magnon] system
# (28.9/29.2/29.5, dampings 0.02/0.006, 0.01/0.02, 0.005/0.004, couplings
# 0.2/0.21) probed at 29.2, computed by the mode-by-mode elimination
# route.  All three transmission routes must stay on this value.
PINNED_SYSTEM_S21 = complex(-0.9236143754718691, -0.27424971493515754)


def pinned_system():
    return canonical_three_mode(
        ModeSpec("m1", 28.9, 0.02, 0.006),
        ModeSpec("r", 29.2, 0.01, 0.02),
        ModeSpec("m2", 29.5, 0.005, 0.004),
        0.2,
        0.21,
    )


def one_magnon_template():
    return SystemTemplate(
        resonator=ModeSpec("cpw", 29.2, 0.01, 0.02),
        magnons=(TemplateMagnon("yig", 0.005, 0.004, YIG),),
        couplings={("cpw", "yig"): 0.25},
    )


# ── Oracles ────────────────────────────────────────────────────────────


def test_all_routes_hit_pinned_value():
    system = pinned_system()
    for route in (s21, s21_sum_oracle, s21_cramer_oracle):
        assert abs(route(system, 29.2) - PINNED_SYSTEM_S21) < 1e-12


def test_sum_oracle_single_mode_closed_form():
    system = HybridSystem((ModeSpec("one", 29.2, 0.01, 0.02),))
    value = s21_sum_oracle(system, 29.2)
    assert abs(value - (-2.0 * 0.02 / 0.03)) < 1e-14


def test_oracles_track_production_route():
    rng = np.random.default_rng(17)
    for _ in range(30):
        system = canonical_three_mode(
            ModeSpec("m1", rng.uniform(27, 31), rng.uniform(0.002, 0.05), rng.uniform(0.002, 0.05)),
            ModeSpec("r", rng.uniform(27, 31), rng.uniform(0.002, 0.05), rng.uniform(0.002, 0.05)),
            ModeSpec("m2", rng.uniform(27, 31), rng.uniform(0.002, 0.05), rng.uniform(0.002, 0.05)),
            rng.uniform(0.02, 0.4),
            rng.uniform(0.02, 0.4),
        )
        omega = rng.uniform(26, 32)
        reference = s21_sum_oracle(system, omega)
        for other in (s21(system, omega), s21_cramer_oracle(system, omega)):
            assert abs(other - reference) <= 1e-12 * max(abs(reference), 1.0)


def test_cramer_oracle_is_three_mode_only():
    system = HybridSystem((ModeSpec("one", 29.2, 0.01, 0.02),))
    with pytest.raises(InvalidSystem, match="three-mode"):
        s21_cramer_oracle(system, 29.2)


# ── Synthetic maps ─────────────────────────────────────────────────────


def test_noise_spec_validation():
    NoiseSpec(sigma=0.0, seed=0)
    NoiseSpec(sigma=0.01, seed=2**64 - 1)
    with pytest.raises(InvalidSystem, match="sigma"):
        NoiseSpec(sigma=-0.01, seed=0)
    with pytest.raises(InvalidSystem, match="seed"):
        NoiseSpec(sigma=0.01, seed=-1)
    with pytest.raises(InvalidSystem, match="seed"):
        NoiseSpec(sigma=0.01, seed=2**64)
    with pytest.raises(InvalidSystem, match="seed"):
        NoiseSpec(sigma=0.01, seed=True)


def test_sigma_zero_returns_clean_map():
    template = one_magnon_template()
    fields = np.linspace(900.0, 1100.0, 9)
    freqs = np.linspace(28.6, 29.8, 11)
    clean = compute_map(template, fields, freqs)
    quiet = synth_map(template, fields, freqs, NoiseSpec(sigma=0.0, seed=123))
    assert np.array_equal(quiet.values, clean.values)


def test_same_seed_reproduces_bit_for_bit():
    template = one_magnon_template()
    fields = np.linspace(900.0, 1100.0, 9)
    freqs = np.linspace(28.6, 29.8, 11)
    spec = NoiseSpec(sigma=0.02, seed=99)
    first = synth_map(template, fields, freqs, spec)
    second = synth_map(template, fields, freqs, spec)
    assert np.array_equal(first.values, second.values)
    different = synth_map(template, fields, freqs, NoiseSpec(sigma=0.02, seed=100))
    assert not np.array_equal(first.values, different.values)


def test_noise_is_added_to_the_checked_map_in_place(monkeypatch):
    checked = []
    check = sweep._check_axis

    def counted(name, values):
        checked.append(name)
        return check(name, values)

    monkeypatch.setattr(sweep, "_check_axis", counted)
    template = one_magnon_template()
    fields = np.linspace(900.0, 1100.0, 9)
    freqs = np.linspace(28.6, 29.8, 11)
    noisy = synth_map(template, fields, freqs, NoiseSpec(sigma=0.02, seed=99))
    assert checked == ["fields", "freqs"]
    draw = np.random.Generator(np.random.Philox(key=99)).standard_normal((9, 11, 2))
    expected = compute_map(template, fields, freqs).values + 0.02 * (draw[..., 0] + 1j * draw[..., 1])
    assert noisy.values.tobytes() == expected.tobytes()


def test_noise_is_independent_of_the_model():
    # the draw depends only on seed and grid shape, so the additive part
    # is identical across templates
    fields = np.linspace(900.0, 1100.0, 9)
    freqs = np.linspace(28.6, 29.8, 11)
    spec = NoiseSpec(sigma=0.03, seed=7)
    t1 = one_magnon_template()
    t2 = SystemTemplate(
        resonator=ModeSpec("cpw", 29.0, 0.02, 0.01),
        magnons=(TemplateMagnon("py", 0.02, 0.006, PERMALLOY),),
        couplings={("cpw", "py"): 0.1},
    )
    d1 = synth_map(t1, fields, freqs, spec).values - compute_map(t1, fields, freqs).values
    d2 = synth_map(t2, fields, freqs, spec).values - compute_map(t2, fields, freqs).values
    # recovering the additive part by subtraction reintroduces rounding at
    # the last ulp of clean + noise, so compare to that precision
    assert np.allclose(d1, d2, rtol=0.0, atol=1e-14)


def test_noise_statistics():
    template = one_magnon_template()
    fields = np.linspace(600.0, 1400.0, 120)
    freqs = np.linspace(28.0, 30.4, 150)
    sigma = 0.05
    noisy = synth_map(template, fields, freqs, NoiseSpec(sigma=sigma, seed=2024))
    clean = compute_map(template, fields, freqs)
    residual = noisy.values - clean.values
    n = residual.size
    for component in (residual.real, residual.imag):
        assert abs(component.std() - sigma) / sigma < 0.02
        assert abs(component.mean()) < 5.0 * sigma / math.sqrt(n)


def test_noise_overflowing_a_value_or_its_magnitude_is_rejected():
    template = one_magnon_template()
    fields = np.linspace(700.0, 1300.0, 5)
    freqs = np.linspace(27.2, 31.2, 7)
    # sigma 1e308, seed 3 overflows components; sigma 8e307, seed 4 keeps
    # every component finite but overflows a magnitude, which a heatmap's
    # |s21| would meet
    for sigma, seed in ((1e308, 3), (8e307, 4)):
        with pytest.raises(InvalidSystem, match="overflows the map"):
            synth_map(template, fields, freqs, NoiseSpec(sigma=sigma, seed=seed))
    noisy = synth_map(template, fields, freqs, NoiseSpec(sigma=1e300, seed=4))
    assert np.isfinite(np.abs(noisy.values)).all()


# ── Passivity diagnostics ──────────────────────────────────────────────


def test_passive_system_is_not_flagged():
    system = pinned_system()
    omegas = np.linspace(27.0, 31.5, 101)
    report = passivity_check(system, omegas)
    assert isinstance(report, PassivityReport)
    assert not report.flagged
    assert report.max_im_eigenvalue <= PASSIVITY_TOL
    assert report.max_abs_one_plus_s21 <= 1.0 + PASSIVITY_TOL


def test_active_system_is_flagged_not_raised():
    # force gain through the frozen-dataclass back door; the diagnostic
    # must report rather than raise
    mode = ModeSpec("one", 29.2, 0.01, 0.02)
    object.__setattr__(mode, "alpha", -0.5)
    system = HybridSystem((mode,))
    report = passivity_check(system, [29.2])
    assert report.flagged
    assert report.max_im_eigenvalue > PASSIVITY_TOL


@pytest.mark.parametrize("name, value", [("beta", -0.01), ("beta", math.nan),
                                         ("omega", math.nan), ("omega", math.inf),
                                         ("alpha", math.inf)])
def test_broken_system_is_flagged_not_raised(name, value):
    # non-finite entries in the coupling matrix: no eigenvalues and no
    # transmission to report, so both indicators read inf
    mode = ModeSpec("one", 29.2, 0.01, 0.02)
    object.__setattr__(mode, name, value)
    system = HybridSystem((mode, ModeSpec("two", 29.3, 0.01, 0.02)), {(0, 1): 0.1})
    report = passivity_check(system, np.linspace(28.0, 30.0, 5))
    assert report.flagged
    assert report.max_abs_one_plus_s21 == math.inf


def test_singular_probe_reads_inf():
    system = HybridSystem((ModeSpec("one", 29.2, 0.0, 0.0), ModeSpec("two", 30.0, 0.01, 0.02)))
    assert passivity_check(system, [29.0, 29.2]).max_abs_one_plus_s21 == math.inf
    assert passivity_check(system, [29.0, 29.3]).max_abs_one_plus_s21 < math.inf


def test_no_probe_frequencies_report_no_transmission():
    system = HybridSystem((ModeSpec("one", 29.2, 0.01, 0.02),))
    report = passivity_check(system, [])
    assert report.max_abs_one_plus_s21 == 0.0 and not report.flagged
