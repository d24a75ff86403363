"""Acceptance gate: one test per release criterion.

Every test prints a single "CRITERION N: PASS - ..." line on success
(run with -s to see them).  Tolerances and runtime budgets are pinned;
recipes are frozen so reruns are reproducible.
"""

import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from cavmag.config import load_config
from cavmag.core import (
    HybridSystem,
    ModeSpec,
    PERMALLOY,
    YIG,
    eigenbranches,
    field_for_frequency,
    kittel_frequency,
    s21,
)
from cavmag.dataio import read_spectrum_csv, write_spectrum_csv
from cavmag.fitting import (
    FitProblem,
    FreeParameter,
    extract_ridges,
    fit_branches,
    fit_map,
    linear_regression,
)
from cavmag.sweep import (
    SystemTemplate,
    TemplateMagnon,
    ThicknessSeries,
    anticrossing_gap,
    compute_branches,
    compute_map,
    gap_at_crossing,
    thickness_sweep,
)
from cavmag.synth import NoiseSpec, s21_cramer_oracle, s21_sum_oracle, synth_map

REPO = Path(__file__).resolve().parent.parent


def device_template() -> SystemTemplate:
    # the reference three-mode device: permalloy + resonator + YIG
    return SystemTemplate(
        resonator=ModeSpec("cpw", 29.2, 0.01, 0.02),
        magnons=(TemplateMagnon("py", 0.02, 0.006, PERMALLOY),
                 TemplateMagnon("yig", 0.005, 0.004, YIG)),
        couplings={("py", "cpw"): 0.2, ("cpw", "yig"): 0.21},
    )


def random_three_mode(rng) -> HybridSystem:
    modes = tuple(
        ModeSpec(f"m{k}", rng.uniform(26.0, 32.0), rng.uniform(1e-3, 0.1), rng.uniform(1e-3, 0.1))
        for k in range(3)
    )
    couplings = {(0, 1): float(rng.uniform(-0.5, 0.5)),
                 (1, 2): float(rng.uniform(-0.5, 0.5))}
    if rng.random() < 0.5:
        couplings[(0, 2)] = float(rng.uniform(-0.3, 0.3))
    return HybridSystem(modes, couplings)


def test_criterion_1_oracle_triple_agreement():
    rng = np.random.default_rng(1001)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        system = random_three_mode(rng)
        for omega in rng.uniform(25.0, 33.0, 10):
            a = s21(system, float(omega))
            b = s21_sum_oracle(system, float(omega))
            c = s21_cramer_oracle(system, float(omega))
            scale = max(abs(a), 1e-30)
            worst = max(worst, abs(a - b) / scale, abs(a - c) / scale)
    elapsed = time.perf_counter() - start
    assert worst <= 1e-10
    assert elapsed < 1.0
    print(f"CRITERION 1: PASS - three s21 routes agree to {worst:.2e} relative "
          f"on 100 systems x 10 frequencies in {elapsed:.2f}s")


def test_criterion_2_eigen_splitting_identity():
    start = time.perf_counter()
    worst = 0.0
    for g in (0.11, 0.2, 0.21, 0.25):
        template = SystemTemplate(
            resonator=ModeSpec("cpw", 29.2, 0.0, 0.0),
            magnons=(TemplateMagnon("yig", 0.0, 0.0, YIG),),
            couplings={("cpw", "yig"): g},
        )
        h_c = field_for_frequency(YIG, 29.2)
        # field step sized so the frequency gap is sampled at <= gap/100
        fields = h_c + (2.0 * g / 100.0) * np.arange(-60.0, 61.0)
        curves = compute_branches(template, fields)
        gap = anticrossing_gap(curves, (fields[0], fields[-1]))
        worst = max(worst, abs(gap.gap - 2.0 * g) / (2.0 * g))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-6
    assert elapsed < 5.0
    print(f"CRITERION 2: PASS - lossless anticrossing gap matches 2g to {worst:.2e} "
          f"relative for g in {{0.11, 0.2, 0.21, 0.25}} in {elapsed:.2f}s")


def test_criterion_3_fit_round_trip_at_reference_couplings():
    template = device_template()
    fields = np.concatenate([np.linspace(700.0, 1300.0, 31),
                             np.linspace(5450.0, 6310.0, 31)])
    freqs = np.linspace(27.2, 31.2, 101)
    problem = FitProblem(template=template, free=(
        FreeParameter("g:py:cpw", 0.05, 0.5, 0.3),     # +50% off
        FreeParameter("g:cpw:yig", 0.05, 0.5, 0.105),  # -50% off
    ))
    start = time.perf_counter()
    clean = compute_map(template, fields, freqs)
    result = fit_map(clean, problem)
    assert result.converged
    err_clean = max(abs(result.params["g:py:cpw"] - 0.2) / 0.2,
                    abs(result.params["g:cpw:yig"] - 0.21) / 0.21)
    assert err_clean <= 1e-3

    worst = 0.0
    for seed in range(20):
        noisy = synth_map(template, fields, freqs, NoiseSpec(sigma=0.01, seed=seed))
        res = fit_map(noisy, problem)
        assert res.converged
        worst = max(worst,
                    abs(res.params["g:py:cpw"] - 0.2) / 0.2,
                    abs(res.params["g:cpw:yig"] - 0.21) / 0.21)
    elapsed = time.perf_counter() - start
    assert worst <= 0.02
    assert elapsed < 60.0
    print(f"CRITERION 3: PASS - (g1, g2) = (0.2, 0.21) recovered from +-50% starts; "
          f"noiseless {err_clean:.2e}, worst over 20 noisy seeds {worst:.3%}, "
          f"{elapsed:.1f}s")


def run_cli(*argv):
    proc = subprocess.run([sys.executable, "-m", "cavmag", *argv],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def fitted_values(stdout: str) -> dict:
    values = {}
    for line in stdout.splitlines():
        if line.startswith("parameter: "):
            parts = line.split()
            values[parts[1]] = float(parts[3])
    return values


def test_criterion_4_single_coupling_scenarios(tmp_path):
    cases = [("py_only.config", "g:cpw:py", 0.11),
             ("yig_only.config", "g:cpw:yig", 0.25)]
    recovered = []
    for filename, name, truth in cases:
        config = str(REPO / "configs" / filename)
        data = tmp_path / (name.replace(":", "_") + ".csv")
        rc, _, err = run_cli("synth", "--config", config, "--out", str(data))
        assert rc == 0, err
        rc, out, err = run_cli("fit", "--config", config, "--data", str(data))
        assert rc == 0, err
        value = fitted_values(out)[name]
        rel = abs(value - truth) / truth
        assert rel <= 0.02
        recovered.append(f"{name}={value:.4f} ({rel:.3%})")
    print(f"CRITERION 4: PASS - cmd_fit round-trips under 1% noise: "
          f"{', '.join(recovered)}")


def test_criterion_5_thickness_pipeline():
    base = SystemTemplate(
        resonator=ModeSpec("cpw", 29.2, 0.002, 0.005),
        magnons=(TemplateMagnon("py", 0.003, 0.002, PERMALLOY),
                 TemplateMagnon("yig", 0.001, 0.001, YIG)),
        couplings={("py", "cpw"): 0.2, ("cpw", "yig"): 0.21},
    )
    thicknesses = (5.0, 10.0, 20.0, 40.0, 60.0, 80.0, 100.0)
    series = thickness_sweep(ThicknessSeries(base, 0.002, 0.1, 5.0, 100.0, thicknesses,
                                             0.5, 0.1, "yig", "py"))
    fields = np.concatenate([np.linspace(700.0, 1300.0, 41),
                             np.linspace(5450.0, 6310.0, 41)])
    freqs = np.linspace(27.2, 31.2, 2001)
    step = freqs[1] - freqs[0]

    start = time.perf_counter()
    g1_fit, g2_fit, gaps_p1 = [], [], []
    for t, template in series:
        spectrum = compute_map(template, fields, freqs)
        ridges = extract_ridges(spectrum, 3, 20.0 * step)
        problem = FitProblem(template=template, free=(
            FreeParameter("g:py:cpw", 0.02, 0.6, template.coupling("py", "cpw") * 1.3),
            FreeParameter("g:cpw:yig", 0.02, 0.6, template.coupling("yig", "cpw") * 0.7),
        ))
        result = fit_branches(ridges, problem)
        assert result.converged, f"fit failed at t={t}"
        g1_fit.append(result.params["g:py:cpw"])
        g2_fit.append(result.params["g:cpw:yig"])
        gaps_p1.append(gap_at_crossing(template, "py").gap)
    elapsed = time.perf_counter() - start

    trend_t = linear_regression(list(thicknesses), g2_fit)
    trend_link = linear_regression(g2_fit, g1_fit)
    errors = (abs(trend_t.slope - 0.002) / 0.002,
              abs(trend_t.intercept - 0.1) / 0.1,
              abs(trend_link.slope - 0.5) / 0.5,
              abs(trend_link.intercept - 0.1) / 0.1)
    assert max(errors) <= 0.01
    assert all(b >= a for a, b in zip(gaps_p1, gaps_p1[1:]))
    assert elapsed < 300.0
    print(f"CRITERION 5: PASS - g2(t) and g1(g2) slopes/intercepts recovered to "
          f"{max(errors):.3%}; permalloy gap nondecreasing over t; {elapsed:.1f}s")


def test_criterion_6_passivity_property_suite():
    rng = np.random.default_rng(6006)
    start = time.perf_counter()
    worst_im = -np.inf
    worst_mag = 0.0
    for _ in range(10_000):
        n = int(rng.integers(1, 5))
        modes = tuple(
            ModeSpec(f"m{k}", rng.uniform(20.0, 40.0),
                     rng.uniform(1e-4, 0.1), rng.uniform(1e-4, 0.1))
            for k in range(n)
        )
        couplings = {}
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.5:
                    couplings[(i, j)] = float(rng.uniform(-0.5, 0.5))
        system = HybridSystem(modes, couplings)
        worst_im = max(worst_im, float(np.max(eigenbranches(system).imag)))
        omega = float(rng.uniform(15.0, 45.0))
        worst_mag = max(worst_mag, abs(1.0 + s21(system, omega)))
    elapsed = time.perf_counter() - start
    assert worst_im <= 1e-12
    assert worst_mag <= 1.0 + 1e-9
    assert elapsed < 30.0
    print(f"CRITERION 6: PASS - 1e4 random damped systems: max Im(eig) = {worst_im:.2e}, "
          f"max |1 + S21| - 1 = {worst_mag - 1.0:.2e}, {elapsed:.1f}s")


def test_criterion_7_kittel_checks():
    yig_1000 = kittel_frequency(YIG, 1000.0)
    py_1000 = kittel_frequency(PERMALLOY, 1000.0)
    # closed-form values from the shipped material constants
    assert abs(yig_1000 - 29.18629815512752) / 29.18629815512752 <= 1e-9
    assert abs(py_1000 - 10.141934726668278) / 10.141934726668278 <= 1e-9

    rng = np.random.default_rng(7007)
    worst = 0.0
    for material in (YIG, PERMALLOY):
        fields = rng.uniform(1.0, 2e4, 1000)
        back = field_for_frequency(material, kittel_frequency(material, fields))
        worst = max(worst, float(np.max(np.abs(back - fields) / fields)))
    assert worst <= 1e-9
    print(f"CRITERION 7: PASS - worked dispersion values match to 1e-9; "
          f"inverse round-trip worst {worst:.2e} over 1000 fields per material")


def test_criterion_8_format_round_trip(tmp_path):
    template = device_template()
    fields = np.linspace(800.0, 1200.0, 11)
    freqs = np.linspace(28.4, 30.0, 13)

    # CSV: write -> read -> write is byte-identical
    spectrum = synth_map(template, fields, freqs, NoiseSpec(sigma=0.01, seed=42))
    first = tmp_path / "first.csv"
    second = tmp_path / "second.csv"
    write_spectrum_csv(first, spectrum)
    write_spectrum_csv(second, read_spectrum_csv(first))
    assert first.read_bytes() == second.read_bytes()

    # config: the shipped files are canonical fixed points of load -> dump
    from cavmag.config import dump_config
    for name in ("full_device.config", "py_only.config",
                 "yig_only.config", "thickness.config"):
        path = REPO / "configs" / name
        text = path.read_text(encoding="utf-8")
        assert dump_config(load_config(path)) == text

    # seeded synthesis is reproducible within one build
    again = synth_map(template, fields, freqs, NoiseSpec(sigma=0.01, seed=42))
    assert np.array_equal(spectrum.values, again.values)
    repeat = tmp_path / "repeat.csv"
    write_spectrum_csv(repeat, again)
    assert first.read_bytes() == repeat.read_bytes()
    print("CRITERION 8: PASS - CSV and config round-trips byte-identical; "
          "seeded synthesis reproducible")
