"""Exact fit Jacobians against finite differences, and the bounded search.

The map columns d s21/dp come from the transmission kernel's own
solution vector, the branch columns from eigenvectors; both must match
central differences of compute_map and compute_branches.  beta columns
are taken with respect to sqrt(beta), the search coordinate.
Hypothesis runs derandomized and without a database, so failures
reproduce.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cavmag.core import PERMALLOY, YIG, ModeSpec, sort_eigenvalues
from cavmag.errors import SingularResponse
from cavmag.fitting import (
    FitProblem,
    FreeParameter,
    _eigenvalue_derivatives,
    _map_columns,
    fit_map,
    split_parameter_name,
)
from cavmag.sweep import (
    SpectrumMap,
    SystemTemplate,
    TemplateMagnon,
    _block_work,
    _each_block,
    _stack,
    compute_branches,
    compute_map,
)

# One parameter of each kind per mode it may name, on the three-mode device.
NAMES = ("g:py:cpw", "g:cpw:yig", "omega:cpw", "alpha:cpw", "alpha:py", "beta:cpw",
         "beta:py", "beta:yig", "gamma:py", "gamma:yig", "four_pi_m:py", "four_pi_m:yig")
# h = 0 first (where d omega_K / d four_pi_m = 0), then both crossings,
# over two field blocks of the kernel.
FIELDS = np.concatenate([[0.0], np.linspace(850.0, 1150.0, 20), np.linspace(5700.0, 6100.0, 20)])
FREQS = np.linspace(28.6, 29.8, 25)
RTOL = 1e-6


def device(alpha=(0.01, 0.02, 0.005), beta=(0.02, 0.006, 0.004), g=(0.2, 0.21), omega=29.2):
    """cpw resonator with permalloy and YIG magnons; tuples are (cpw, py, yig)."""
    return SystemTemplate(
        resonator=ModeSpec("cpw", omega, alpha[0], beta[0]),
        magnons=(TemplateMagnon("py", alpha[1], beta[1], PERMALLOY),
                 TemplateMagnon("yig", alpha[2], beta[2], YIG)),
        couplings={("py", "cpw"): g[0], ("cpw", "yig"): g[1]},
    )


def value_of(template, name):
    kind, labels = split_parameter_name(name)
    if kind == "g":
        return template.coupling(*labels)
    if kind == "omega":
        return template.resonator.omega
    if labels[0] == template.resonator.label:
        return getattr(template.resonator, kind)
    magnon = template.magnon(labels[0])
    return getattr(magnon, kind) if kind in ("alpha", "beta") else getattr(magnon.material, kind)


def with_parameter(template, name, value):
    """template with one parameter set to value, rebuilt (and so validated)
    through the model's own constructors: the reference for a fit's arrays."""
    kind, labels = split_parameter_name(name)
    if kind == "g":
        return template.with_couplings({tuple(labels): value})
    if labels[0] == template.resonator.label:
        return replace(template, resonator=replace(template.resonator, **{kind: value}))
    magnons = []
    for m in template.magnons:
        if m.label == labels[0]:
            m = (replace(m, **{kind: value}) if kind in ("alpha", "beta")
                 else replace(m, material=replace(m.material, **{kind: value})))
        magnons.append(m)
    return replace(template, magnons=tuple(magnons))


def slots_of(template, name):
    value = value_of(template, name)
    return FitProblem(template, (FreeParameter(name, 0.5 * value, 2.0 * value + 1.0, value),)).slots


def central_difference(evaluate, template, name, rel_step=1e-6):
    """d evaluate / du at u = value, or u = sqrt(value) for beta, from the
    five-point stencil (truncation error of order step^4).  Returns the
    derivative and the step."""
    root = name.startswith("beta:")
    u = value_of(template, name)
    u = math.sqrt(u) if root else u
    step = rel_step * max(abs(u), 1e-4)

    def at(v):
        return evaluate(with_parameter(template, name, v * v if root else v))

    slope = (8.0 * (at(u + step) - at(u - step)) - (at(u + 2.0 * step) - at(u - 2.0 * step)))
    return slope / (12.0 * step), step


def exact_map_column(template, name):
    slots = slots_of(template, name)
    arrays = template.arrays
    columns = []
    _each_block(*_stack(arrays, FIELDS), FIELDS, FREQS, lambda block, model, y: columns.append(
        _map_columns(slots, arrays, model, y, FIELDS[block, None])[0]),
        _block_work(len(arrays["omega"]), FIELDS, FREQS))
    return np.concatenate(columns)


def sorted_eigen_derivatives(template, name):
    """d lambda/dp per field and branch, in compute_branches order."""
    values, vectors = np.linalg.eig(_stack(template.arrays, FIELDS)[0])
    rows = []
    for k, (row, vecs) in enumerate(zip(values, vectors)):
        order = [int(np.flatnonzero(row == value)[0]) for value in sort_eigenvalues(row)]
        h = np.full(len(order), FIELDS[k])
        rows.append(_eigenvalue_derivatives(slots_of(template, name), template.arrays,
                                            vecs[:, order].T, h)[0])
    return np.array(rows)


def relative_error(exact, reference):
    return np.linalg.norm(exact - reference) / np.linalg.norm(reference)


rates = st.floats(2e-3, 0.05)


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(alpha=st.tuples(rates, rates, rates), beta=st.tuples(rates, rates, rates),
       g=st.tuples(st.floats(0.05, 0.4), st.floats(0.05, 0.4)), omega=st.floats(28.9, 29.5))
@example(alpha=(0.01, 0.02, 0.005), beta=(0.02, 1e-10, 0.004), g=(0.2, 0.21), omega=29.2)
def test_map_columns_match_central_differences(alpha, beta, g, omega):
    template = device(alpha, beta, g, omega)
    for name in NAMES:
        exact = exact_map_column(template, name)
        reference, _ = central_difference(lambda t: compute_map(t, FIELDS, FREQS).values,
                                          template, name)
        assert relative_error(exact, reference) <= RTOL, name
        if name.startswith("four_pi_m:"):
            assert np.all(exact[0] == 0.0)  # h = 0


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(alpha=st.tuples(rates, rates, rates), beta=st.tuples(rates, rates, rates),
       g=st.tuples(st.floats(0.05, 0.4), st.floats(0.05, 0.4)), omega=st.floats(28.9, 29.5))
@example(alpha=(0.01, 0.02, 0.005), beta=(0.02, 1e-10, 0.004), g=(0.2, 0.21), omega=29.2)
def test_branch_columns_match_central_differences(alpha, beta, g, omega):
    # Eigenvalues carry rounding errors of order eps * max|H| (max|H| is
    # set by the far-detuned Kittel frequencies), which the difference
    # divides by its step: the error allowed on top of RTOL.  Dampings
    # move Re(lambda) little, so they take a larger step.
    template = device(alpha, beta, g, omega)
    noise = 100.0 * np.finfo(float).eps * np.abs(_stack(template.arrays, FIELDS)[0]).max()
    for name in NAMES:
        exact = sorted_eigen_derivatives(template, name).real
        rel_step = 1e-3 if name.startswith(("alpha:", "beta:")) else 1e-5
        reference, step = central_difference(
            lambda t: compute_branches(t, FIELDS).branches.real, template, name, rel_step)
        allowed = RTOL * np.abs(reference).max() + noise / step
        assert np.all(np.abs(exact - reference) <= allowed), name


# ── The bounded search ─────────────────────────────────────────────────


def one_magnon(g=0.25, beta_m=0.004):
    return SystemTemplate(
        resonator=ModeSpec("cpw", 29.2, 0.01, 0.02),
        magnons=(TemplateMagnon("yig", 0.005, beta_m, YIG),),
        couplings={("cpw", "yig"): g},
    )


def one_magnon_map(template):
    return compute_map(template, np.linspace(850.0, 1150.0, 31), np.linspace(28.2, 30.2, 41))


def test_optimum_outside_the_box_converges_on_the_bound():
    # g is held on its upper bound while omega finds its best value there
    data = one_magnon_map(one_magnon(g=0.25))
    problem = FitProblem(one_magnon(), (FreeParameter("g:cpw:yig", 0.05, 0.2, 0.1),
                                        FreeParameter("omega:cpw", 28.0, 30.0, 29.3)))
    result = fit_map(data, problem)
    assert result.converged
    assert result.params["g:cpw:yig"] == 0.2
    assert math.isnan(result.stderr["g:cpw:yig"])
    assert math.isfinite(result.stderr["omega:cpw"])


def test_beta_fit_from_its_lower_bound_zero_converges():
    data = one_magnon_map(one_magnon(beta_m=0.004))
    problem = FitProblem(one_magnon(beta_m=0.0), (FreeParameter("beta:yig", 0.0, 0.02, 0.0),))
    result = fit_map(data, problem)
    assert result.converged
    assert abs(result.params["beta:yig"] - 0.004) <= 1e-8 * 0.004
    assert result.residual < 1e-20


def test_noise_free_map_fit_recovers_couplings():
    truth = device()
    fields = np.concatenate([np.linspace(700.0, 1300.0, 31), np.linspace(5450.0, 6310.0, 31)])
    data = compute_map(truth, fields, np.linspace(27.2, 31.2, 101))
    problem = FitProblem(truth, (FreeParameter("g:py:cpw", 0.05, 0.5, 0.3),
                                 FreeParameter("g:cpw:yig", 0.05, 0.5, 0.105)))
    result = fit_map(data, problem)
    assert result.converged
    assert abs(result.params["g:py:cpw"] - 0.2) <= 1e-8 * 0.2
    assert abs(result.params["g:cpw:yig"] - 0.21) <= 1e-8 * 0.21
    assert len(result.history) <= result.iterations + 1


def test_singular_model_raises_as_compute_map_does():
    # a lossless resonator probed at its own frequency
    template = SystemTemplate(resonator=ModeSpec("cpw", 29.2, 0.0, 0.0), magnons=(), couplings={})
    fields = np.linspace(0.0, 100.0, 40)
    freqs = np.array([29.0, 29.2, 29.4])
    data = SpectrumMap(fields, freqs, np.zeros((fields.size, freqs.size), complex))
    problem = FitProblem(template, (FreeParameter("alpha:cpw", 0.0, 0.1, 0.0),))
    with pytest.raises(SingularResponse) as from_map:
        compute_map(template, fields, freqs)
    with pytest.raises(SingularResponse) as from_fit:
        fit_map(data, problem)
    assert str(from_fit.value) == str(from_map.value)
