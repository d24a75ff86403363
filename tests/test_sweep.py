"""Field sweeps: templates, maps, branch curves, anticrossing gaps."""

import copy
import math
import pickle
import tracemalloc

import numpy as np
import pytest

from cavmag.core import (
    PERMALLOY,
    SINGULAR_COND_LIMIT,
    YIG,
    KittelMaterial,
    ModeSpec,
    build_coupling_hamiltonian,
    eigenbranches,
    format_float,
    kittel_frequency,
    s21,
    stripline_vector,
)
from cavmag.errors import (
    EigenFailure,
    InvalidSystem,
    NegativeCoupling,
    NegativeField,
    NoMinimum,
    SingularResponse,
    WindowTooNarrow,
)
from cavmag import sweep
from cavmag.fitting import FitProblem, FreeParameter, fit_map
from cavmag.sweep import (
    _BLOCK_POINTS,
    _stack,
    BranchCurves,
    SpectrumMap,
    SystemTemplate,
    TemplateMagnon,
    ThicknessSeries,
    anticrossing_gap,
    compute_branches,
    compute_map,
    crossing_field,
    crossing_window,
    gap_at_crossing,
    instantiate,
    thickness_sweep,
)
from test_fit_jacobians import with_parameter

CROSS_PY_29_2 = 5879.015115345802
CROSS_YIG_29_2 = 1000.6885787966239


def two_magnon_template(g1=0.2, g2=0.21):
    return SystemTemplate(
        resonator=ModeSpec("cpw", 29.2, 0.01, 0.02),
        magnons=(
            TemplateMagnon("py", 0.02, 0.006, PERMALLOY),
            TemplateMagnon("yig", 0.005, 0.004, YIG),
        ),
        couplings={("py", "cpw"): g1, ("cpw", "yig"): g2},
    )


def lossless_pair(g):
    return SystemTemplate(
        resonator=ModeSpec("cpw", 29.2, 0.0, 0.0),
        magnons=(TemplateMagnon("yig", 0.0, 0.0, YIG),),
        couplings={("cpw", "yig"): g},
    )


# ── Template validation ────────────────────────────────────────────────


def test_template_magnon_validation():
    with pytest.raises(InvalidSystem, match="alpha"):
        TemplateMagnon("py", -0.01, 0.006, PERMALLOY)


def test_template_rejects_unknown_and_self_couplings():
    with pytest.raises(InvalidSystem, match="unknown mode"):
        SystemTemplate(
            resonator=ModeSpec("cpw", 29.2, 0.01, 0.02),
            magnons=(TemplateMagnon("py", 0.02, 0.006, PERMALLOY),),
            couplings={("py", "nope"): 0.1},
        )
    for couplings, shown in [({("py", "py"): 0.1}, "self-coupling"),
                             ({("py", "py"): 0.0}, "self-coupling"),
                             ({("py", "cpw", "x"): 0.1}, "not a pair of modes"),
                             ({("py", 0): 0.1}, "unknown mode 0"),
                             ({("py", "cpw"): True}, "must be a finite real"),
                             ([(("py", "cpw"), 0.1), (("cpw", "py"), 0.2)], "given twice")]:
        with pytest.raises(InvalidSystem, match=shown):
            SystemTemplate(
                resonator=ModeSpec("cpw", 29.2, 0.01, 0.02),
                magnons=(TemplateMagnon("py", 0.02, 0.006, PERMALLOY),),
                couplings=couplings,
            )


def test_template_rejects_direct_magnon_coupling():
    with pytest.raises(InvalidSystem, match="resonator-mediated"):
        SystemTemplate(
            resonator=ModeSpec("cpw", 29.2, 0.01, 0.02),
            magnons=(
                TemplateMagnon("py", 0.02, 0.006, PERMALLOY),
                TemplateMagnon("yig", 0.005, 0.004, YIG),
            ),
            couplings={("py", "yig"): 0.1},
        )
    # an explicit zero is a no-op and allowed
    template = SystemTemplate(
        resonator=ModeSpec("cpw", 29.2, 0.01, 0.02),
        magnons=(
            TemplateMagnon("py", 0.02, 0.006, PERMALLOY),
            TemplateMagnon("yig", 0.005, 0.004, YIG),
        ),
        couplings={("py", "yig"): 0.0},
    )
    assert template.coupling("py", "yig") == 0.0


def test_template_lookup_and_update():
    template = two_magnon_template()
    assert template.mode_order() == ["py", "cpw", "yig"]
    assert template.coupling("cpw", "py") == 0.2
    assert template.coupling("yig", "cpw") == 0.21
    updated = template.with_couplings({("cpw", "yig"): 0.3})
    assert updated.coupling("yig", "cpw") == 0.3
    assert template.coupling("yig", "cpw") == 0.21  # original untouched
    with pytest.raises(InvalidSystem, match="no magnon"):
        template.magnon("cpw")
    assert updated.arrays["g"][1, 2] == updated.arrays["g"][2, 1] == 0.3
    assert template.arrays["g"][1, 2] == 0.21


def test_template_stores_a_magnon_list_as_a_tuple():
    template = two_magnon_template()
    listed = SystemTemplate(template.resonator, list(template.magnons), template.couplings)
    assert listed.magnons == template.magnons and type(listed.magnons) is tuple
    assert listed == template


def test_with_couplings_sets_every_pair_in_one_template():
    template = two_magnon_template()
    updated = template.with_couplings({("cpw", "py"): 0.3, ("yig", "cpw"): 0.4})
    assert (updated.coupling("py", "cpw"), updated.coupling("cpw", "yig")) == (0.3, 0.4)
    assert updated.arrays["g"][0, 1] == 0.3 and updated.arrays["g"][1, 2] == 0.4
    assert template.with_couplings({}) == template
    with pytest.raises(InvalidSystem, match="resonator-mediated"):
        template.with_couplings({("cpw", "py"): 0.3, ("py", "yig"): 0.1})


def test_template_arrays_are_read_only():
    template = two_magnon_template()
    assert template.arrays["magnons"] == ((0, "py"), (2, "yig"))
    with pytest.raises(TypeError):
        template.arrays["omega"] = np.zeros(3)
    for kind in ("omega", "alpha", "beta", "gamma", "four_pi_m", "g"):
        with pytest.raises(ValueError, match="read-only"):
            template.arrays[kind][0] = 1.0
    system = instantiate(template, 1000.0)
    for record in (template, system):
        for clone in (copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
            assert clone == record
            assert np.array_equal(clone.arrays["g"], record.arrays["g"])
            assert not clone.arrays["g"].flags.writeable


def test_instantiate_mode_order_and_kittel():
    template = two_magnon_template()
    system = instantiate(template, 1000.0)
    assert [m.label for m in system.modes] == ["py", "cpw", "yig"]
    assert system.modes[0].omega == kittel_frequency(PERMALLOY, 1000.0)
    assert system.modes[1].omega == 29.2
    assert system.modes[2].omega == kittel_frequency(YIG, 1000.0)
    assert system.g(0, 1) == 0.2
    assert system.g(1, 2) == 0.21
    assert system.g(0, 2) == 0.0
    # the system's table: its own omega, no material, no magnon slots
    assert list(system.arrays["omega"]) == [m.omega for m in system.modes]
    assert not system.arrays["gamma"].any() and system.arrays["magnons"] == ()
    assert np.array_equal(system.arrays["g"], template.arrays["g"])


# ── Grid containers ────────────────────────────────────────────────────


def test_spectrum_map_validation():
    with pytest.raises(InvalidSystem, match="ascending"):
        SpectrumMap(np.array([2.0, 1.0]), np.array([1.0, 2.0]), np.zeros((2, 2), complex))
    with pytest.raises(InvalidSystem, match="shape"):
        SpectrumMap(np.array([1.0, 2.0]), np.array([1.0, 2.0]), np.zeros((2, 3), complex))
    with pytest.raises(InvalidSystem, match="nonempty"):
        SpectrumMap(np.array([]), np.array([1.0]), np.zeros((0, 1), complex))


def test_branch_curves_validation():
    with pytest.raises(InvalidSystem, match="ascending"):
        BranchCurves(np.array([2.0, 1.0]), np.zeros((2, 3), complex))
    with pytest.raises(InvalidSystem, match="shape"):
        BranchCurves(np.array([1.0, 2.0]), np.zeros((3, 3), complex))


# ── Sweeps ─────────────────────────────────────────────────────────────


def test_map_matches_scalar_calls_exactly():
    # 70 fields: three kernel blocks sharing one work array, the last one short
    template = two_magnon_template()
    fields = np.linspace(600.0, 1400.0, 70)
    freqs = np.linspace(28.4, 30.0, 9)
    spectrum = compute_map(template, fields, freqs)
    for i, h in enumerate(fields):
        system = instantiate(template, h)
        scalar = np.array([s21(system, float(w)) for w in freqs])
        assert spectrum.values[i].tobytes() == scalar.tobytes()


def one_magnon_template():
    return SystemTemplate(
        resonator=ModeSpec("cpw", 29.2, 0.01, 0.02),
        magnons=(TemplateMagnon("yig", 0.005, 0.004, YIG),),
        couplings={("cpw", "yig"): 0.21},
    )


def three_magnon_template():
    # distinct materials and dampings per slot, so a magnon written onto
    # the wrong diagonal entry changes the matrix
    return SystemTemplate(
        resonator=ModeSpec("cpw", 29.2, 0.01, 0.02),
        magnons=(
            TemplateMagnon("py", 0.02, 0.006, PERMALLOY),
            TemplateMagnon("yig", 0.005, 0.004, YIG),
            TemplateMagnon("cofe", 0.011, 0.003, KittelMaterial(gamma=5e-3, four_pi_m=4000.0)),
        ),
        couplings={("py", "cpw"): 0.2, ("cpw", "yig"): 0.21, ("cofe", "cpw"): 0.15,
                   ("py", "cofe"): 0.05},
    )


@pytest.mark.parametrize("make", [one_magnon_template, two_magnon_template, three_magnon_template])
def test_field_hamiltonians_match_instantiated_systems_bitwise(make):
    template = make()
    fields = np.linspace(600.0, 6400.0, 11)
    hams = _stack(template.arrays, fields)[0]
    assert hams.shape == (fields.size, len(template.magnons) + 1, len(template.magnons) + 1)
    for h, ham in zip(fields, hams):
        assert ham.tobytes() == build_coupling_hamiltonian(instantiate(template, h)).tobytes()
    if len(template.magnons) < 2:
        return
    # A fit writes each kind of parameter straight into the template's
    # arrays; its stack and weights must equal the validated template's.
    candidates = [("g:cpw:yig", 0.23), ("omega:cpw", 29.31), ("alpha:yig", 0.0061),
                  ("beta:cpw", 0.027), ("beta:py", 0.0071), ("gamma:yig", 0.0171),
                  ("four_pi_m:py", 10333.0)]
    if len(template.magnons) > 2:
        candidates.append(("g:yig:cofe", 0.031))  # a pair the template leaves uncoupled
    for name, value in candidates:
        problem = FitProblem(template, (FreeParameter(name, 0.5 * value, 2.0 * value, value),))
        fit_hams, fit_weights = _stack(problem.arrays_at(np.array([value])), fields)
        candidate = with_parameter(template, name, value)
        assert fit_hams.tobytes() == _stack(candidate.arrays, fields)[0].tobytes(), name
        for h, ham in zip(fields, fit_hams):
            assert ham.tobytes() == build_coupling_hamiltonian(instantiate(candidate, h)).tobytes()
        assert fit_weights.tobytes() == stripline_vector(instantiate(candidate, 0.0)).tobytes()


@pytest.mark.parametrize("make", [one_magnon_template, three_magnon_template])
def test_map_matches_scalar_calls_exactly_for_other_magnon_counts(make):
    template = make()
    fields = np.linspace(600.0, 6400.0, 7)
    freqs = np.linspace(28.4, 30.0, 9)
    spectrum = compute_map(template, fields, freqs)
    for i, h in enumerate(fields):
        system = instantiate(template, h)
        for j, w in enumerate(freqs):
            assert spectrum.values[i, j] == s21(system, float(w))


def test_sweep_names_first_negative_field():
    fields = np.linspace(-10.0, 1000.0, 300)
    for sweep in (lambda: compute_branches(two_magnon_template(), fields),
                  lambda: compute_map(two_magnon_template(), fields, [29.0])):
        with pytest.raises(NegativeField) as info:
            sweep()
        assert str(info.value) == "applied field must be finite and >= 0, got -10.0"


def unscreened_guard(template, fields, freqs):
    """SingularResponse message of the plain SVD guard over the whole grid, or None."""
    hams = np.stack([build_coupling_hamiltonian(instantiate(template, h)) for h in fields])
    eye = np.eye(hams.shape[-1])
    cond = np.linalg.cond(1j * (freqs[None, :, None, None] * eye - hams[:, None, :, :]))
    bad = ~np.isfinite(cond) | (cond > SINGULAR_COND_LIMIT)
    if not np.any(bad):
        return None
    i, j = np.argwhere(bad)[0]
    return (f"response matrix numerically singular at h={format_float(fields[i])}, "
            f"omega={format_float(freqs[j])} (estimated condition number {cond[i, j]:.3e})")


def guard_outcome(template, fields, freqs):
    try:
        compute_map(template, fields, freqs)
    except SingularResponse as exc:
        return str(exc)
    return None


def lossy_pair(damping, g=0.2):
    return SystemTemplate(
        resonator=ModeSpec("cpw", 29.2, damping, damping),
        magnons=(TemplateMagnon("yig", damping, 2.0 * damping, YIG),),
        couplings={("cpw", "yig"): g},
    )


def test_screened_guard_decides_like_svd_at_lossless_eigenfrequencies():
    # probes on and a hair off the eigenfrequencies of (nearly) lossless
    # modes put the condition number on both sides of the limit
    fields = np.linspace(900.0, 1100.0, 5)
    outcomes = set()
    for damping in (0.0, 1e-16, 1e-14, 1e-13, 1e-12, 1e-10):
        template = lossy_pair(damping)
        eigen = compute_branches(template, fields).branches.real.ravel()
        probes = np.concatenate([eigen, eigen * (1.0 + 1e-14), eigen * (1.0 + 1e-12)])
        for i in range(fields.size):
            for w in probes:
                point = (fields[i : i + 1], np.array([w]))
                expected = unscreened_guard(template, *point)
                assert guard_outcome(template, *point) == expected
                outcomes.add(expected is None)
    assert outcomes == {True, False}


def test_screened_guard_on_exactly_singular_block():
    # decoupled lossless modes: the response matrix at omega = 29.2 has
    # an exact zero pivot, so the batched inverse of the block fails
    template = SystemTemplate(
        resonator=ModeSpec("cpw", 29.2, 0.0, 0.0),
        magnons=(TemplateMagnon("yig", 0.0, 0.0, YIG),),
        couplings={},
    )
    fields = np.linspace(1200.0, 1300.0, 4)
    freqs = np.array([28.0, 29.2, 30.0])
    ham = build_coupling_hamiltonian(instantiate(template, fields[0]))
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.inv(1j * (29.2 * np.eye(2) - ham))
    expected = unscreened_guard(template, fields, freqs)
    assert expected is not None
    assert guard_outcome(template, fields, freqs) == expected


def test_screened_guard_reports_first_point_across_field_blocks():
    # the only singular probes sit in the third block of fields, so the
    # earlier blocks are screened clean before the guard fires
    template = lossy_pair(0.0)
    width = 8  # probe frequencies, so a block holds _BLOCK_POINTS // width fields
    step = _BLOCK_POINTS // width
    fields = np.linspace(900.0, 1100.0, 2 * step + 7)
    k = 2 * step + 3
    eigen = compute_branches(template, fields[k : k + 1]).branches.real[0]
    freqs = np.concatenate([np.linspace(27.0, 28.0, width - 3), np.sort(eigen), [31.5]])
    assert freqs.size == width
    expected = unscreened_guard(template, fields, freqs)
    assert expected is not None and f"h={format_float(fields[k])}," in expected
    assert guard_outcome(template, fields, freqs) == expected
    # with damping the same grid clears, and the map is still computed block by block
    damped = lossy_pair(1e-10)
    assert unscreened_guard(damped, fields, freqs) is None
    assert guard_outcome(damped, fields, freqs) is None


@pytest.mark.parametrize("fields_per_block", [1, 7])
def test_block_size_leaves_maps_unchanged_and_fits_within_roundoff(monkeypatch, fields_per_block):
    # 7 fields per block leaves a partial last block on the 24 fields
    template = two_magnon_template()
    fields = np.concatenate([np.linspace(940.0, 1060.0, 12), np.linspace(5800.0, 5960.0, 12)])
    freqs = np.linspace(28.6, 29.8, 31)
    data = compute_map(template, fields, freqs)
    problem = FitProblem(template, (FreeParameter("g:cpw:py", 0.05, 0.5, 0.15),
                                    FreeParameter("g:cpw:yig", 0.05, 0.5, 0.3)))
    noisy = SpectrumMap(fields, freqs, data.values + 0.01 * np.exp(1j * np.outer(fields, freqs)))
    one_block = fit_map(noisy, problem)
    monkeypatch.setattr(sweep, "_BLOCK_POINTS", fields_per_block * freqs.size)
    blocked = compute_map(template, fields, freqs)
    assert np.array_equal(blocked.values.view(np.uint64), data.values.view(np.uint64))
    refit = fit_map(noisy, problem)
    assert (refit.iterations, refit.converged) == (one_block.iterations, one_block.converged)
    got = [refit.residual, *refit.params.values(), *refit.stderr.values()]
    want = [one_block.residual, *one_block.params.values(), *one_block.stderr.values()]
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)


def test_block_memory_does_not_grow_with_the_field_count():
    # a wide frequency axis gets fewer fields per block, so the work array
    # and the kernel's temporaries stay those of one block of points
    template = two_magnon_template()
    freqs = np.linspace(28.0, 30.4, 2001)

    def peak(count):
        fields = np.linspace(900.0, 1100.0, count)
        hams, weights = _stack(template.arrays, fields)
        tracemalloc.start()
        try:
            work = sweep._block_work(hams.shape[-1], fields, freqs)
            sweep._each_block(hams, weights, fields, freqs, lambda block, values, x: None, work)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(64) <= 1.05 * peak(8)


def test_map_subset_invariance():
    template = two_magnon_template()
    fields = np.linspace(600.0, 1400.0, 11)
    freqs = np.linspace(28.4, 30.0, 9)
    full = compute_map(template, fields, freqs)
    part = compute_map(template, fields[::2], freqs)
    assert np.array_equal(part.values, full.values[::2])


def test_map_grid_validation():
    template = two_magnon_template()
    with pytest.raises(InvalidSystem, match="fields"):
        compute_map(template, [1000.0, 900.0], [29.0, 29.2])
    with pytest.raises(InvalidSystem, match="freqs"):
        compute_map(template, [900.0, 1000.0], [])


def test_singular_message_prints_plain_floats():
    # a lossless resonator probed at its own frequency
    template = SystemTemplate(resonator=ModeSpec("cpw", 27.2, 0.0, 0.0), magnons=(), couplings={})
    with pytest.raises(SingularResponse) as info:
        compute_map(template, np.array([200.0, 300.0]), np.array([27.0, 27.2]))
    assert str(info.value).startswith(
        "response matrix numerically singular at h=200, omega=27.199999999999999 (")


def test_eigen_failure_message_prints_plain_floats(monkeypatch):
    def failing_eigvals(matrices):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvals", failing_eigvals)
    with pytest.raises(EigenFailure) as info:
        compute_branches(two_magnon_template(), np.array([200.0, 300.0]))
    assert str(info.value) == "eigenvalue iteration failed at h=200"


def test_kittel_overflow_names_magnon_and_field():
    huge = KittelMaterial(gamma=1.76e-2, four_pi_m=1e308)
    template = SystemTemplate(
        resonator=ModeSpec("cpw", 29.2, 0.01, 0.02),
        magnons=(TemplateMagnon("yig", 0.005, 0.004, huge),),
        couplings={("cpw", "yig"): 0.25},
    )
    message = "magnon 'yig': Kittel frequency overflows at h=200"
    for build in (lambda: _stack(template.arrays, [0.0, 1.0, 200.0, 300.0]),
                  lambda: instantiate(template, 200.0)):
        with pytest.raises(InvalidSystem) as info:
            build()
        assert str(info.value) == message
    with pytest.raises(InvalidSystem) as info:
        kittel_frequency(huge, 200.0)
    assert str(info.value) == "Kittel frequency overflows at h=200"
    assert kittel_frequency(huge, 1.0) > 0.0


def test_branches_match_single_system_eigenvalues():
    template = two_magnon_template()
    fields = np.linspace(600.0, 1400.0, 9)
    curves = compute_branches(template, fields)
    assert curves.branches.shape == (9, 3)
    for h, row in zip(curves.fields, curves.branches):
        assert np.array_equal(row, eigenbranches(instantiate(template, float(h))))


def test_decoupled_branches_follow_bare_dispersions():
    template = SystemTemplate(
        resonator=ModeSpec("cpw", 29.2, 0.0, 0.0),
        magnons=(TemplateMagnon("yig", 0.0, 0.0, YIG),),
        couplings={("cpw", "yig"): 0.0},
    )
    fields = np.linspace(700.0, 1300.0, 21)
    curves = compute_branches(template, fields)
    for h, row in zip(curves.fields, curves.branches):
        bare = sorted([29.2, kittel_frequency(YIG, float(h))])
        assert np.max(np.abs(row.real - bare)) < 1e-12
        assert np.max(np.abs(row.imag)) < 1e-12


# ── Anticrossing gaps ──────────────────────────────────────────────────


def test_lossless_gap_equals_twice_coupling():
    g = 0.2
    template = lossless_pair(g)
    h_c = crossing_field(template, "yig")
    fields = h_c + (2.0 * g / 100.0) * np.arange(-60, 61)
    report = anticrossing_gap(compute_branches(template, fields), (fields[0], fields[-1]))
    assert abs(report.gap - 2.0 * g) / (2.0 * g) < 1e-9
    assert abs(report.g_estimate - g) / g < 1e-9
    assert abs(report.h_star - h_c) < fields[1] - fields[0]


def test_gap_requires_interior_minimum():
    template = lossless_pair(0.2)
    # a window entirely below the crossing: separation decreases monotonically
    fields = np.linspace(700.0, 900.0, 41)
    curves = compute_branches(template, fields)
    with pytest.raises(NoMinimum):
        anticrossing_gap(curves, (700.0, 900.0))


def test_gap_window_validation():
    template = lossless_pair(0.2)
    fields = np.linspace(900.0, 1100.0, 41)
    curves = compute_branches(template, fields)
    with pytest.raises(WindowTooNarrow, match="empty"):
        anticrossing_gap(curves, (1000.0, 1000.0))
    with pytest.raises(WindowTooNarrow, match="leaves the swept range"):
        anticrossing_gap(curves, (800.0, 1100.0))
    with pytest.raises(WindowTooNarrow, match="need >= 3"):
        anticrossing_gap(curves, (1000.0, 1000.0 + 1.5 * (fields[1] - fields[0])))


def test_gap_needs_two_branches():
    template = SystemTemplate(
        resonator=ModeSpec("cpw", 29.2, 0.01, 0.02),
        magnons=(),
        couplings={},
    )
    curves = compute_branches(template, np.linspace(900.0, 1100.0, 11))
    with pytest.raises(InvalidSystem, match="two branches"):
        anticrossing_gap(curves, (900.0, 1100.0))


def test_crossing_fields():
    template = two_magnon_template()
    assert math.isclose(crossing_field(template, "py"), CROSS_PY_29_2, rel_tol=1e-12)
    assert math.isclose(crossing_field(template, "yig"), CROSS_YIG_29_2, rel_tol=1e-12)


def test_crossing_window_straddles_crossing():
    template = two_magnon_template()
    for label in ("py", "yig"):
        lo, hi = crossing_window(template, label)
        h_c = crossing_field(template, label)
        assert lo < h_c < hi
    # decoupled modes still get a finite window through the scale floor
    bare = two_magnon_template(g1=0.0, g2=0.0)
    lo, hi = crossing_window(bare, "yig")
    assert hi > lo


def test_gap_at_crossing_recovers_both_couplings():
    # lossy three-mode system: each local gap stays within 1% of 2g
    template = two_magnon_template()
    p1 = gap_at_crossing(template, "py")
    p2 = gap_at_crossing(template, "yig")
    assert abs(p1.g_estimate - 0.2) / 0.2 < 0.01
    assert abs(p2.g_estimate - 0.21) / 0.21 < 0.01
    # the two anticrossings sit at distinct fields
    assert p2.h_star < p1.h_star


# ── Thickness series ───────────────────────────────────────────────────


LAW = (0.002, 0.1, 5.0, 100.0)  # slope, intercept, t_min, t_max


def test_thickness_model_validation():
    series = ThicknessSeries(two_magnon_template(), *LAW, (10.0,), 0.5, 0.1, "yig")
    assert series.rows[0][1] == 0.002 * 10.0 + 0.1
    with pytest.raises(InvalidSystem, match="empty"):
        ThicknessSeries(two_magnon_template(), 0.002, 0.1, 5.0, 5.0, (5.0,), 0.5, 0.1, "yig")
    with pytest.raises(NegativeCoupling):
        ThicknessSeries(two_magnon_template(), -0.01, 0.1, 5.0, 100.0, (5.0,), 0.5, 0.1, "yig")


def test_thickness_sweep_applies_both_laws():
    base = two_magnon_template()
    series = ThicknessSeries(base, *LAW, (5.0, 40.0, 100.0), 0.5, 0.1, "yig", "py")
    assert series.rows == tuple((t, 0.002 * t + 0.1, 0.5 * (0.002 * t + 0.1) + 0.1)
                                for t in (5.0, 40.0, 100.0))
    templates = thickness_sweep(series)
    assert [t for t, _ in templates] == [5.0, 40.0, 100.0]
    for t, template in templates:
        g2 = 0.002 * t + 0.1
        assert template.coupling("yig", "cpw") == g2
        assert template.coupling("py", "cpw") == 0.5 * g2 + 0.1
    # base is untouched
    assert base.coupling("yig", "cpw") == 0.21


def test_thickness_sweep_links_only_the_named_magnon():
    # without a linked label the other magnon keeps its template coupling
    base = two_magnon_template()
    series = ThicknessSeries(base, *LAW, (5.0,), 0.5, 0.1, "yig")
    assert series.rows == ((5.0, 0.002 * 5.0 + 0.1, None),)
    (t, template), = thickness_sweep(series)
    assert template.coupling("yig", "cpw") == 0.002 * 5.0 + 0.1
    assert template.coupling("py", "cpw") == base.coupling("py", "cpw")


@pytest.mark.parametrize("model, thicknesses, crosslink, linked, error, text", [
    (LAW, (200.0,), (0.5, 0.1), None, InvalidSystem,
     r"^thickness 200.0 outside model range \[5.0, 100.0\]$"),
    (LAW, (50.0,), (-10.0, 0.0), "py", NegativeCoupling, r"^crosslink gives g=-2.0 at t=50.0$"),
    (LAW, (50.0,), (0.5, 0.1), "yig", InvalidSystem, r"^varied and linked magnon must differ$"),
    (LAW, (50.0,), (0.5, 0.1), "nope", InvalidSystem, r"^no magnon labelled 'nope'$"),
    (LAW, (50.0, "thick"), (0.5, 0.1), "py", InvalidSystem,
     r"^thickness value must be a finite real, got 'thick'$"),
    (LAW, (50.0,), (math.nan, 0.1), "py", InvalidSystem,
     r"^crosslink_slope must be a finite real, got nan$"),
    ((1e307, 0.1, 5.0, 100.0), (5.0, 100.0), (0.5, 0.1), "py", InvalidSystem,
     r"^coupling \('cpw', 'yig'\) must be a finite real, got inf$"),
    (LAW, (100.0,), (1.7e308, 1.7e308), "py", InvalidSystem,
     r"^coupling \('cpw', 'py'\) must be a finite real, got inf$"),
    # the law is checked before the rest of the series
    ((0.002, 0.1, 5.0, 5.0), (50.0, "thick"), (0.5, 0.1), "nope", InvalidSystem,
     r"^thickness range is empty: \[5.0, 5.0\]$"),
])
def test_thickness_series_validation(model, thicknesses, crosslink, linked, error, text):
    with pytest.raises(error, match=text):
        ThicknessSeries(two_magnon_template(), *model, thicknesses, *crosslink, "yig", linked)


def test_thickness_sweep_single_magnon():
    base = SystemTemplate(
        resonator=ModeSpec("cpw", 29.2, 0.01, 0.02),
        magnons=(TemplateMagnon("yig", 0.005, 0.004, YIG),),
        couplings={("cpw", "yig"): 0.2},
    )
    (t, template), = thickness_sweep(ThicknessSeries(base, *LAW, (20.0,), 0.5, 0.1, "yig"))
    assert template.coupling("yig", "cpw") == 0.002 * 20.0 + 0.1


@pytest.mark.parametrize("fields, freqs, axis, shown", [
    ([1000.0], [29.0, math.inf], "freqs", "inf at index 1"),
    ([math.nan], [29.0], "fields", "nan at index 0"),
    ([1000.0], [math.nan], "freqs", "nan at index 0"),
    ([1000.0, -math.inf], [29.0], "fields", "-inf at index 1"),
])
def test_non_finite_grid_axes_are_rejected(fields, freqs, axis, shown):
    # without the finiteness check these reach the transmission kernel
    # and end in SingularResponse at omega=inf/nan plus RuntimeWarnings
    template = two_magnon_template()
    with pytest.raises(InvalidSystem, match=f"{axis} must be finite, got {shown}"):
        compute_map(template, fields, freqs)
    with pytest.raises(InvalidSystem, match=f"{axis} must be finite"):
        SpectrumMap(fields, freqs, np.zeros((len(fields), len(freqs)), complex))
    if axis == "fields":
        with pytest.raises(InvalidSystem, match="fields must be finite"):
            compute_branches(template, fields)
        with pytest.raises(InvalidSystem, match="fields must be finite"):
            BranchCurves(fields, np.zeros((len(fields), 3), complex))


def test_branches_check_their_fields_once(monkeypatch):
    checked = []
    check = sweep._check_axis

    def counted(name, values):
        checked.append(name)
        return check(name, values)

    monkeypatch.setattr(sweep, "_check_axis", counted)
    fields = np.linspace(600.0, 1400.0, 17)
    curves = compute_branches(two_magnon_template(), fields)
    assert checked == ["fields"]
    assert curves.fields.tobytes() == fields.tobytes()
    assert curves.branches.shape == (17, 3)


@pytest.mark.parametrize("resonator, magnon", [
    (ModeSpec("cpw", 29.2, 0.01, 1e200), TemplateMagnon("yig", 0.005, 1e200, YIG)),
    (ModeSpec("cpw", 29.2, 0.01, 1e308), TemplateMagnon("yig", 0.005, 0.004, YIG)),
    (ModeSpec("cpw", 29.2, 0.01, 0.02), TemplateMagnon("yig", 1e308, 1e308, YIG)),
], ids=["cross_term", "own_square", "diagonal"])
def test_template_rejects_damping_that_overflows_the_matrix(resonator, magnon):
    with pytest.raises(InvalidSystem, match="damping overflows the coupling matrix"):
        SystemTemplate(resonator=resonator, magnons=(magnon,), couplings={("cpw", "yig"): 0.2})
