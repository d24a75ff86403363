"""Ridge extraction, parameter plumbing, simplex fits, linear regression."""

import math
from pathlib import Path

import numpy as np
import pytest

from cavmag import fitting, sweep
from cavmag.config import load_config
from cavmag.core import PERMALLOY, YIG, HybridSystem, KittelMaterial, ModeSpec
from cavmag.errors import (
    DegenerateData,
    DegenerateProblem,
    InvalidSystem,
)
from cavmag.fitting import (
    FitProblem,
    FreeParameter,
    RidgeSet,
    coupling_guess_from_ridges,
    damping_guess_from_column,
    extract_ridges,
    fit_branches,
    fit_map,
    linear_regression,
    resolve_parameter,
)
from cavmag.sweep import (
    SpectrumMap,
    SystemTemplate,
    TemplateMagnon,
    compute_map,
    crossing_field,
    thickness_sweep,
)
from cavmag.synth import NoiseSpec, synth_map
from test_fit_jacobians import with_parameter


def one_magnon_template(g=0.25, alpha_m=0.005, beta_m=0.004):
    return SystemTemplate(
        resonator=ModeSpec("cpw", 29.2, 0.01, 0.02),
        magnons=(TemplateMagnon("yig", alpha_m, beta_m, YIG),),
        couplings={("cpw", "yig"): g},
    )


# ── Ridge extraction ───────────────────────────────────────────────────


def test_extract_single_lorentzian_ridge():
    # isolated damped resonator: |s21| peaks at the bare frequency
    template = SystemTemplate(
        resonator=ModeSpec("cpw", 29.2, 0.01, 0.02),
        magnons=(),
        couplings={},
    )
    fields = np.array([100.0, 200.0])
    freqs = np.linspace(28.8, 29.6123, 161)  # grid deliberately off-center
    spectrum = compute_map(template, fields, freqs)
    ridges = extract_ridges(spectrum, 1, 0.1)
    assert ridges.total() == 2
    for peaks in ridges.peaks:
        assert peaks.size == 1
        assert abs(peaks[0] - 29.2) < 1e-4


def test_extract_ridges_thins_close_peaks():
    freqs = np.linspace(0.0, 10.0, 101)
    # two bumps 0.5 apart plus one far away
    mag = (np.exp(-((freqs - 4.0) ** 2) / 0.02) + 0.8 * np.exp(-((freqs - 4.5) ** 2) / 0.02)
           + 0.9 * np.exp(-((freqs - 8.0) ** 2) / 0.02))
    values = mag.astype(complex)[None, :]
    spectrum = SpectrumMap(np.array([1.0]), freqs, values)
    wide = extract_ridges(spectrum, 3, 1.0)  # separation forces dropping the 4.5 bump
    assert wide.peaks[0].size == 2
    assert np.allclose(wide.peaks[0], [4.0, 8.0], atol=0.01)
    narrow = extract_ridges(spectrum, 3, 0.2)
    assert narrow.peaks[0].size == 3


def test_extract_ridges_caps_count_strongest_first():
    freqs = np.linspace(0.0, 10.0, 201)
    mag = (0.5 * np.exp(-((freqs - 2.0) ** 2) / 0.01)
           + 1.0 * np.exp(-((freqs - 5.0) ** 2) / 0.01)
           + 0.7 * np.exp(-((freqs - 8.0) ** 2) / 0.01))
    spectrum = SpectrumMap(np.array([1.0]), freqs, mag.astype(complex)[None, :])
    top2 = extract_ridges(spectrum, 2, 0.5)
    assert np.allclose(top2.peaks[0], [5.0, 8.0], atol=0.01)  # weakest dropped


def test_extract_ridges_validation():
    spectrum = SpectrumMap(np.array([1.0]), np.array([1.0, 2.0, 3.0]),
                           np.zeros((1, 3), complex))
    with pytest.raises(InvalidSystem, match="n_ridges"):
        extract_ridges(spectrum, 0, 0.1)
    with pytest.raises(InvalidSystem, match="min_separation"):
        extract_ridges(spectrum, 1, 0.0)
    # a flat column simply yields no peaks
    assert extract_ridges(spectrum, 1, 0.1).total() == 0


# ── Parameter plumbing ─────────────────────────────────────────────────


def test_free_parameter_validation():
    with pytest.raises(InvalidSystem, match="unknown parameter kind"):
        FreeParameter("mass:py", 0.0, 1.0, 0.5)
    with pytest.raises(InvalidSystem, match="no freedom"):
        FreeParameter("g:cpw:py", 1.0, 1.0, 1.0)
    with pytest.raises(InvalidSystem, match="outside"):
        FreeParameter("g:cpw:py", 0.0, 1.0, 2.0)
    with pytest.raises(InvalidSystem, match=">= 0"):
        FreeParameter("beta:py", -0.5, 1.0, 0.5)
    with pytest.raises(InvalidSystem, match="lower bound must be > 0"):
        FreeParameter("four_pi_m:py", 0.0, 1e4, 0.5)
    # couplings may be negative
    FreeParameter("g:cpw:py", -1.0, 1.0, -0.5)


def test_fit_problem_rejects_duplicates_and_bad_initials():
    template = one_magnon_template()
    with pytest.raises(InvalidSystem, match="duplicate"):
        FitProblem(template, (
            FreeParameter("g:cpw:yig", 0.0, 1.0, 0.2),
            FreeParameter("g:cpw:yig", 0.0, 1.0, 0.3),
        ))
    with pytest.raises(InvalidSystem, match="omega is only free on the resonator"):
        FitProblem(template, (FreeParameter("omega:yig", 20.0, 30.0, 29.0),))


def test_coupling_aliases_resolve_alike_and_are_rejected_together():
    template = one_magnon_template()  # mode order: yig, cpw
    assert resolve_parameter(template, "g:cpw:yig") == resolve_parameter(template, "g:yig:cpw") \
        == ("g", (0, 1))
    assert resolve_parameter(template, "four_pi_m:yig") == ("four_pi_m", (0,))
    with pytest.raises(InvalidSystem, match="duplicate free parameters: 'g:cpw:yig' and 'g:yig:cpw'"):
        FitProblem(template, (
            FreeParameter("g:cpw:yig", 0.05, 0.6, 0.175),
            FreeParameter("g:yig:cpw", 0.05, 0.6, 0.25),
        ))


def test_arrays_at_sets_each_kind_as_a_rebuilt_template():
    template = one_magnon_template()
    values = {"g:yig:cpw": 0.3, "alpha:cpw": 0.015, "beta:yig": 0.007, "omega:cpw": 29.5,
              "gamma:yig": 1.8e-2, "four_pi_m:yig": 1800.0}
    problem = FitProblem(template, tuple(FreeParameter(name, 0.5 * v, 2.0 * v, v)
                                         for name, v in values.items()))
    arrays = problem.arrays_at(list(values.values()))
    rebuilt = template
    for name, value in values.items():
        rebuilt = with_parameter(rebuilt, name, value)
    assert arrays.keys() == rebuilt.arrays.keys()
    for kind, column in rebuilt.arrays.items():
        assert np.array_equal(arrays[kind], column), kind
    # the template's own table is untouched
    assert template.arrays["omega"][1] == 29.2
    assert template.arrays["g"][0, 1] == template.arrays["g"][1, 0] == 0.25


def test_fit_problem_rejects_unknown_targets():
    template = one_magnon_template()
    for name, message in [("alpha:nope", "names unknown mode 'nope'"),
                          ("g:cpw:nope", "names unknown mode 'nope'"),
                          ("gamma:cpw", "no magnon labelled 'cpw'"),
                          ("four_pi_m:nope", "no magnon labelled 'nope'"),
                          ("g:yig:yig", "self-coupling on 'yig'")]:
        with pytest.raises(InvalidSystem, match=message):
            FitProblem(template, (FreeParameter(name, 0.01, 0.1, 0.05),))
    with pytest.raises(InvalidSystem, match="two labels"):
        FreeParameter("g:cpw", 0.0, 1.0, 0.1)
    with pytest.raises(InvalidSystem, match="exactly one label"):
        FreeParameter("alpha:cpw:yig", 0.0, 1.0, 0.1)


# ── Fits ───────────────────────────────────────────────────────────────


def test_fit_map_with_no_free_parameters_is_exact():
    template = one_magnon_template()
    fields = np.linspace(900.0, 1100.0, 11)
    freqs = np.linspace(28.6, 29.8, 21)
    data = compute_map(template, fields, freqs)
    result = fit_map(data, FitProblem(template, ()))
    assert result.converged
    assert result.residual == 0.0
    assert result.iterations == 0
    assert result.params == {}


def test_fit_map_recovers_coupling_from_clean_data():
    truth = one_magnon_template(g=0.25)
    fields = np.linspace(850.0, 1150.0, 31)
    freqs = np.linspace(28.2, 30.2, 41)
    data = compute_map(truth, fields, freqs)
    problem = FitProblem(truth, (FreeParameter("g:cpw:yig", 0.05, 0.6, 0.12),))
    result = fit_map(data, problem)
    assert result.converged
    assert abs(result.params["g:cpw:yig"] - 0.25) / 0.25 < 1e-6
    # accepted-best history never increases
    assert all(b <= a for a, b in zip(result.history, result.history[1:]))


@pytest.mark.parametrize("free", [(), ("g:cpw:yig",)])
def test_fit_never_converges_on_a_non_finite_objective(free):
    template = one_magnon_template()
    fields = np.linspace(900.0, 1100.0, 5)
    freqs = np.linspace(28.6, 29.8, 7)
    values = compute_map(template, fields, freqs).values.copy()
    values[2, 3] = complex(math.inf, 0.0)
    problem = FitProblem(template, tuple(FreeParameter(name, 0.05, 0.6, 0.2) for name in free))
    result = fit_map(SpectrumMap(fields, freqs, values), problem)
    assert not result.converged
    assert result.residual == math.inf


def test_fit_map_needs_enough_points():
    template = one_magnon_template()
    tiny = SpectrumMap(np.array([1000.0]), np.array([29.2]),
                       np.array([[0.1 + 0.0j]]))
    problem = FitProblem(template, (
        FreeParameter("g:cpw:yig", 0.05, 0.6, 0.2),
        FreeParameter("alpha:cpw", 0.0, 0.1, 0.01),
    ))
    with pytest.raises(DegenerateProblem):
        fit_map(tiny, problem)


def test_fit_branches_recovers_coupling_from_ridges():
    truth = one_magnon_template(g=0.25, alpha_m=0.001, beta_m=0.001)
    fields = np.linspace(850.0, 1150.0, 41)
    freqs = np.linspace(28.2, 30.2, 1001)
    data = compute_map(truth, fields, freqs)
    ridges = extract_ridges(data, 2, 20.0 * (freqs[1] - freqs[0]))
    problem = FitProblem(truth, (FreeParameter("g:cpw:yig", 0.05, 0.6, 0.15),))
    result = fit_branches(ridges, problem)
    assert result.converged
    assert abs(result.params["g:cpw:yig"] - 0.25) / 0.25 < 5e-3
    assert math.isfinite(result.stderr["g:cpw:yig"])


def test_fit_branches_needs_enough_ridge_points():
    template = one_magnon_template()
    ridges = RidgeSet(fields=np.array([1000.0]), peaks=(np.array([29.1, 29.3]),))
    problem = FitProblem(template, (FreeParameter("g:cpw:yig", 0.05, 0.6, 0.2),))
    with pytest.raises(DegenerateProblem):
        fit_branches(ridges, problem)


@pytest.mark.parametrize("sigma, tolerance", [(0.0, 1e-4), (0.01, 1e-2)])
def test_fitted_maps_recover_the_thickness_crosslink(sigma, tolerance):
    # The paper infers g1 = 0.5 g2 + 0.1 from spectra fitted at each YIG
    # thickness: fit both couplings of every map of the shipped series,
    # then regress g1 on g2.  tolerance bounds the relative error of the
    # slope and of the intercept.
    config = load_config(Path(__file__).resolve().parent.parent / "configs" / "thickness.config")
    spec = config.thickness
    series = thickness_sweep(config.template(), spec.model, spec.crosslink_slope,
                             spec.crosslink_intercept, spec.thicknesses, spec.varied, spec.linked)
    g1, g2 = [], []
    for t, template in series:
        h_py, h_yig = crossing_field(template, "py"), crossing_field(template, "yig")
        fields = np.concatenate([np.linspace(h_yig - 300.0, h_yig + 300.0, 31),
                                 np.linspace(h_py - 430.0, h_py + 430.0, 31)])
        data = synth_map(template, fields, np.linspace(27.2, 31.2, 101),
                         NoiseSpec(sigma=sigma, seed=11))
        truth = (template.coupling("py", "cpw"), template.coupling("yig", "cpw"))
        result = fit_map(data, FitProblem(template, (
            FreeParameter("g:py:cpw", 0.02, 0.6, 1.5 * truth[0]),
            FreeParameter("g:cpw:yig", 0.02, 0.6, 0.5 * truth[1]))))
        assert result.converged, f"t={t}"
        g1.append(result.params["g:py:cpw"])
        g2.append(result.params["g:cpw:yig"])
    crosslink = linear_regression(g2, g1)
    assert abs(crosslink.slope - 0.5) <= tolerance * 0.5
    assert abs(crosslink.intercept - 0.1) <= tolerance * 0.1


# ── Linear regression ──────────────────────────────────────────────────


def test_regression_exact_line():
    x = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
    fit = linear_regression(x, 2.0 * x + 1.0)
    assert fit.slope == 2.0
    assert fit.intercept == 1.0
    assert fit.r_squared == 1.0


def test_regression_constant_data():
    fit = linear_regression([1.0, 2.0, 3.0], [5.0, 5.0, 5.0])
    assert fit.slope == 0.0
    assert fit.intercept == 5.0
    assert fit.r_squared == 1.0


def test_regression_degenerate_inputs():
    with pytest.raises(DegenerateData, match=">= 2"):
        linear_regression([1.0], [2.0])
    with pytest.raises(DegenerateData, match="no spread"):
        linear_regression([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(DegenerateData, match="matching"):
        linear_regression([1.0, 2.0], [1.0, 2.0, 3.0])


def test_regression_noisy_r_squared_below_one():
    rng = np.random.default_rng(5)
    x = np.linspace(0.0, 1.0, 50)
    y = 3.0 * x - 0.5 + rng.normal(0.0, 0.05, x.size)
    fit = linear_regression(x, y)
    assert abs(fit.slope - 3.0) < 0.15
    assert 0.9 < fit.r_squared < 1.0


# ── Initial-guess recipes ──────────────────────────────────────────────


def test_coupling_guess_from_ridges():
    ridges = RidgeSet(
        fields=np.array([900.0, 1000.0, 1100.0]),
        peaks=(
            np.array([28.9, 29.5]),
            np.array([29.0, 29.4]),  # closest pair: separation 0.4
            np.array([29.05]),
        ),
    )
    guess = coupling_guess_from_ridges(ridges, (850.0, 1150.0))
    assert math.isclose(guess, 0.2, rel_tol=1e-12)
    with pytest.raises(DegenerateData, match="two ridges"):
        coupling_guess_from_ridges(ridges, (1050.0, 1150.0))


def test_damping_guess_from_column():
    # isolated resonator: FWHM of |s21|^2 equals twice the total damping
    alpha, beta = 0.012, 0.02
    template = SystemTemplate(
        resonator=ModeSpec("cpw", 29.2, alpha, beta),
        magnons=(),
        couplings={},
    )
    spectrum = compute_map(template, np.array([100.0]), np.linspace(28.6, 29.8, 2001))
    guess = damping_guess_from_column(spectrum)
    assert abs(guess - (alpha + beta)) / (alpha + beta) < 0.01
    empty = SpectrumMap(np.array([1.0]), np.array([1.0, 2.0]), np.zeros((1, 2), complex))
    with pytest.raises(DegenerateData, match="no response"):
        damping_guess_from_column(empty)


def test_arrays_at_a_magnon_damping_at_its_current_value_are_the_template_arrays():
    template = one_magnon_template(alpha_m=0.005, beta_m=0.004)
    problem = FitProblem(template, (FreeParameter("alpha:yig", 0.0, 0.01, 0.005),
                                    FreeParameter("beta:yig", 0.0, 0.01, 0.004)))
    arrays = problem.arrays_at([0.005, 0.004])
    assert all(np.array_equal(arrays[kind], column) for kind, column in template.arrays.items())
    assert with_parameter(with_parameter(template, "alpha:yig", 0.005), "beta:yig", 0.004) == template


# ── The parameter box, validated once ──────────────────────────────────


def two_magnon_template():
    return SystemTemplate(
        resonator=ModeSpec("cpw", 29.2, 0.01, 0.02),
        magnons=(TemplateMagnon("py", 0.02, 0.006, PERMALLOY),
                 TemplateMagnon("yig", 0.005, 0.004, YIG)),
        couplings={("py", "cpw"): 0.2, ("cpw", "yig"): 0.21},
    )


@pytest.mark.parametrize("make, free, message", [
    (two_magnon_template, ("g:py:yig", 0.0, 0.1, 0.0),
     "free parameters at their upper bounds: two-magnon templates are resonator-mediated"),
    (one_magnon_template, ("gamma:yig", 0.0, 0.05, 0.0176),
     "parameter 'gamma:yig': lower bound must be > 0"),
    (one_magnon_template, ("beta:cpw", 0.0, 1e300, 0.02),
     "free parameters at their upper bounds: mode 'cpw': damping overflows the coupling matrix"),
])
def test_fit_box_the_template_rejects_fails_on_construction(make, free, message):
    # each box holds a valid initial point, so only a check of the whole
    # box, made before any evaluation, can reject it
    with pytest.raises(InvalidSystem) as info:
        FitProblem(make(), (FreeParameter(*free),))
    assert str(info.value).startswith(message)


def test_negative_coupling_bounds_fit_without_warnings():
    # only beta is searched in sqrt(beta); RuntimeWarnings fail the suite
    truth = one_magnon_template(g=0.25)
    data = compute_map(truth, np.linspace(850.0, 1150.0, 31), np.linspace(28.2, 30.2, 41))
    problem = FitProblem(truth, (FreeParameter("g:cpw:yig", -1.0, 1.0, 0.2),
                                 FreeParameter("beta:yig", 0.0, 0.02, 0.003)))
    result = fit_map(data, problem)
    assert result.converged
    assert abs(result.params["g:cpw:yig"] - 0.25) <= 1e-8 * 0.25


def test_parameter_past_the_square_root_of_the_float_range_fits_without_warnings():
    # only beta's search coordinate is squared: 4 pi M = 1e200 squared overflows
    template = SystemTemplate(
        resonator=ModeSpec("cpw", 29.2, 0.01, 0.02),
        magnons=(TemplateMagnon("yig", 0.005, 0.004, KittelMaterial(1.76e-2, 1e200)),),
        couplings={("cpw", "yig"): 0.25},
    )
    data = compute_map(template, np.linspace(0.0, 1e-190, 5), np.linspace(28.2, 30.2, 11))
    free = FreeParameter("four_pi_m:yig", 1e199, 1e201, 1e200)
    result = fit_map(data, FitProblem(template, (free,)))
    assert result.converged
    assert result.params["four_pi_m:yig"] == 1e200


def test_fit_evaluations_build_no_model_objects(monkeypatch):
    truth = two_magnon_template()
    fields = np.concatenate([np.linspace(800.0, 1200.0, 12), np.linspace(5600.0, 6100.0, 12)])
    data = compute_map(truth, fields, np.linspace(28.2, 30.2, 41))
    ridges = extract_ridges(data, 3, 0.1)
    free = (FreeParameter("g:py:cpw", 0.1, 0.3, 0.21),
            FreeParameter("omega:cpw", 29.0, 29.4, 29.21),
            FreeParameter("alpha:yig", 0.001, 0.01, 0.0051),
            FreeParameter("beta:cpw", 0.01, 0.03, 0.021),
            FreeParameter("gamma:yig", 0.017, 0.018, 0.01761),
            FreeParameter("four_pi_m:py", 10000.0, 12000.0, 10910.0))
    built = []

    def counting(name, method):
        def wrapper(*args, **kwargs):
            built.append(name)
            return method(*args, **kwargs)
        return wrapper

    for cls in (SystemTemplate, TemplateMagnon, HybridSystem, ModeSpec, KittelMaterial):
        monkeypatch.setattr(cls, "__post_init__", counting(cls.__name__, cls.__post_init__))
    monkeypatch.setattr(sweep, "instantiate", counting("instantiate", sweep.instantiate))
    monkeypatch.setattr(fitting, "MAX_ITERATIONS", 2)
    problem = FitProblem(truth, free)  # the box is checked without building a template
    for result in (fit_map(data, problem), fit_branches(ridges, problem)):
        assert result.iterations >= 1
    assert built == []
