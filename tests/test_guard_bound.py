"""The passivity bound that screens the singularity guard.

core._cond_bound bounds the 2-norm condition number of every response
matrix M = i (omega I - H) from per-field symmetric eigenvalues, and
only points it cannot clear go to the SVD (np.linalg.cond).  The
property test checks that the bound really bounds, on damped, lossless
and near-exceptional-point systems and on probes placed exactly on the
eigenvalues of Re H; the count tests keep whole maps from drifting
onto the SVD.  Hypothesis runs derandomized, so failures reproduce.
"""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cavmag.config import load_config
from cavmag.core import (
    SINGULAR_COND_LIMIT,
    _SCREEN_MARGIN,
    YIG,
    HybridSystem,
    ModeSpec,
    _cond_bound,
    _transmission,
    build_coupling_hamiltonian,
)
from cavmag.sweep import SystemTemplate, TemplateMagnon, _stack, compute_map

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def response_conds(ham, freqs):
    eye = np.eye(ham.shape[0])
    return np.linalg.cond(1j * (freqs[:, None, None] * eye - ham))


def near_ep_pair(omega1, gamma1, gamma2, beta1, beta2, delta):
    """Two modes whose coupling sits delta from an exceptional point."""
    modes = (ModeSpec("a", omega1, gamma1, beta1),
             ModeSpec("b", omega1 + 2.0 * math.sqrt(beta1 * beta2), gamma2, beta2))
    return HybridSystem(modes, {(0, 1): (gamma1 + beta1 - gamma2 - beta2) / 2.0 + delta})


frequencies = st.floats(0.0, 40.0)
rates = st.one_of(st.just(0.0), st.floats(1e-12, 1e-8), st.floats(1e-4, 0.1))


@st.composite
def systems(draw):
    n = draw(st.integers(1, 4))
    lossless = draw(st.booleans())
    modes = tuple(ModeSpec(f"m{k}", draw(frequencies),
                           0.0 if lossless else draw(rates), 0.0 if lossless else draw(rates))
                  for k in range(n))
    couplings = {(i, j): draw(st.floats(-0.5, 0.5)) for i in range(n) for j in range(i + 1, n)}
    return HybridSystem(modes, couplings)


def check_bound(system, offsets):
    ham = build_coupling_hamiltonian(system)
    # exactly on the eigenvalues of Re H, and around them and the poles
    anchors = np.concatenate([np.linalg.eigvalsh(ham.real), np.linalg.eigvals(ham).real])
    freqs = np.concatenate([anchors, (anchors[:, None] + np.asarray(offsets)).ravel()])
    bound = _cond_bound(ham[None], freqs)[0]
    exact = response_conds(ham, freqs)
    assert np.all(bound >= exact * (1.0 - 1e-12)), (bound, exact)
    return bound, exact


offsets = st.lists(st.sampled_from([1e-14, -1e-12, 1e-10, -1e-6, 1e-3, -0.1, 0.5]),
                   min_size=1, max_size=4)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(system=systems(), offsets=offsets)
@example(system=HybridSystem((ModeSpec("a", 29.2, 0.0, 0.0),)), offsets=[1e-14])
def test_bound_is_an_upper_bound_on_the_condition_number(system, offsets):
    check_bound(system, offsets)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(omega=st.floats(20.0, 40.0), gamma1=st.floats(1e-3, 0.1), gamma2=st.floats(1e-3, 0.1),
       beta1=st.floats(1e-3, 0.1), beta2=st.floats(1e-3, 0.1),
       delta=st.sampled_from([0.0, 1e-12, 1e-8, 1e-4, 1e-1]), offsets=offsets)
def test_bound_holds_near_exceptional_points(omega, gamma1, gamma2, beta1, beta2, delta,
                                             offsets):
    check_bound(near_ep_pair(omega, gamma1, gamma2, beta1, beta2, delta), offsets)


def test_bound_is_infinite_on_lossless_eigenfrequencies():
    system = HybridSystem((ModeSpec("a", 29.2, 0.0, 0.0), ModeSpec("b", 29.5, 0.0, 0.0)),
                          {(0, 1): 0.3})
    bound, exact = check_bound(system, [0.25])
    assert np.all(np.isinf(bound[:2])) and np.all(np.isfinite(bound[-2:]))
    assert np.all(exact[:2] > SINGULAR_COND_LIMIT)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_matrices_are_never_cleared(value):
    ham = build_coupling_hamiltonian(HybridSystem((ModeSpec("a", 29.2, 0.01, 0.02),
                                                   ModeSpec("b", 29.5, 0.01, 0.02))))
    hams = np.stack([ham, ham])
    hams[1, 0, 1] = hams[1, 1, 0] = complex(value, 0.0)
    freqs = np.array([28.0, 29.2, 31.0])
    bound = _cond_bound(hams, freqs)
    assert np.all(bound[0] < SINGULAR_COND_LIMIT / _SCREEN_MARGIN)
    assert np.all(np.isnan(bound[1]))
    _, cond, _ = _transmission(hams, np.ones(2), freqs)
    assert np.array_equal(cond[1], np.full(3, np.inf))


def counting_svd(monkeypatch):
    """Every matrix handed to np.linalg.cond, one list entry per call."""
    seen = []
    original = np.linalg.cond

    def cond(matrices, *args, **kwargs):
        seen.append(np.array(matrices))
        return original(matrices, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "cond", cond)
    return seen


def test_full_device_map_needs_no_svd(monkeypatch):
    config = load_config(CONFIG_DIR / "full_device.config")
    seen = counting_svd(monkeypatch)
    compute_map(config.template(), config.field_grid.to_array(), config.freq_grid.to_array())
    assert sum(len(m) for m in seen) == 0


def test_lossless_map_sends_only_points_on_eigenfrequency_lines_to_svd(monkeypatch):
    template = SystemTemplate(resonator=ModeSpec("cpw", 29.2, 0.0, 0.0),
                              magnons=(TemplateMagnon("yig", 0.0, 0.0, YIG),),
                              couplings={("cpw", "yig"): 0.2})
    fields = np.linspace(900.0, 1100.0, 101)
    hams = _stack(template.arrays, fields)[0]
    lines = np.linalg.eigvalsh(hams.real)  # (fields, 2) eigenfrequencies of Re H
    weights = np.ones(2)
    seen = counting_svd(monkeypatch)
    _transmission(hams, weights, np.linspace(28.0, 30.5, 101))
    assert sum(len(m) for m in seen) == 0
    # probes planted on the two lines of the middle field are the only ones routed
    freqs = np.sort(np.concatenate([np.linspace(28.0, 30.5, 99), lines[50]]))
    _, cond, _ = _transmission(hams, weights, freqs)
    routed = [m for batch in seen for m in batch]
    assert len(routed) == 2
    planted = [1j * (w * np.eye(2) - hams[50]) for w in lines[50]]
    assert all(any(np.array_equal(m, p) for p in planted) for m in routed)
    assert np.all(cond[50, np.isin(freqs, lines[50])] > SINGULAR_COND_LIMIT)
