"""Field sweeps: templates, maps, branch curves, anticrossing gaps."""

import math

import numpy as np
import pytest

from cavmag.core import (
    PERMALLOY,
    SINGULAR_COND_LIMIT,
    YIG,
    KittelMaterial,
    ModeSpec,
    _assemble_hamiltonian,
    eigenbranches,
    s21,
)
from cavmag.errors import (
    InvalidSystem,
    NegativeCoupling,
    NegativeField,
    NoMinimum,
    SingularResponse,
    WindowTooNarrow,
)
from cavmag.sweep import (
    _FIELD_BLOCK,
    BranchCurves,
    SpectrumMap,
    SystemTemplate,
    TemplateMagnon,
    ThicknessModel,
    anticrossing_gap,
    compute_branches,
    compute_map,
    crossing_field,
    crossing_window,
    gap_at_crossing,
    hamiltonians,
    instantiate,
    thickness_sweep,
)

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
    with pytest.raises(InvalidSystem, match="self-coupling"):
        SystemTemplate(
            resonator=ModeSpec("cpw", 29.2, 0.01, 0.02),
            magnons=(TemplateMagnon("py", 0.02, 0.006, PERMALLOY),),
            couplings={("py", "py"): 0.1},
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
    updated = template.with_coupling("cpw", "yig", 0.3)
    assert updated.coupling("yig", "cpw") == 0.3
    assert template.coupling("yig", "cpw") == 0.21  # original untouched
    with pytest.raises(InvalidSystem, match="no magnon"):
        template.magnon("cpw")


def test_instantiate_mode_order_and_kittel():
    template = two_magnon_template()
    system = instantiate(template, 1000.0)
    assert [m.label for m in system.modes] == ["py", "cpw", "yig"]
    from cavmag.core import kittel_frequency

    assert system.modes[0].omega == kittel_frequency(PERMALLOY, 1000.0)
    assert system.modes[1].omega == 29.2
    assert system.modes[2].omega == kittel_frequency(YIG, 1000.0)
    assert system.g(0, 1) == 0.2
    assert system.g(1, 2) == 0.21
    assert system.g(0, 2) == 0.0


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
    template = two_magnon_template()
    fields = np.linspace(600.0, 1400.0, 7)
    freqs = np.linspace(28.4, 30.0, 9)
    spectrum = compute_map(template, fields, freqs)
    for i, h in enumerate(fields):
        system = instantiate(template, h)
        for j, w in enumerate(freqs):
            assert spectrum.values[i, j] == s21(system, float(w))


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
    hams = hamiltonians(template, fields)
    assert hams.shape == (fields.size, len(template.magnons) + 1, len(template.magnons) + 1)
    for h, ham in zip(fields, hams):
        assert ham.tobytes() == _assemble_hamiltonian(instantiate(template, h)).tobytes()


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
        assert str(info.value).startswith("applied field must be finite and >= 0, got ")
        assert f"{fields[0]!r}" in str(info.value) and len(str(info.value)) < 80


def unscreened_guard(template, fields, freqs):
    """SingularResponse message of the plain SVD guard over the whole grid, or None."""
    hams = np.stack([_assemble_hamiltonian(instantiate(template, h)) for h in fields])
    eye = np.eye(hams.shape[-1])
    cond = np.linalg.cond(1j * (freqs[None, :, None, None] * eye - hams[:, None, :, :]))
    bad = ~np.isfinite(cond) | (cond > SINGULAR_COND_LIMIT)
    if not np.any(bad):
        return None
    i, j = np.argwhere(bad)[0]
    return (f"response matrix numerically singular at h={fields[i]!r}, omega={freqs[j]!r} "
            f"(estimated condition number {cond[i, j]:.3e})")


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
    ham = _assemble_hamiltonian(instantiate(template, fields[0]))
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.inv(1j * (29.2 * np.eye(2) - ham))
    expected = unscreened_guard(template, fields, freqs)
    assert expected is not None
    assert guard_outcome(template, fields, freqs) == expected


def test_screened_guard_reports_first_point_across_field_blocks():
    # the only singular probes sit in the third block of fields, so the
    # earlier blocks are screened clean before the guard fires
    template = lossy_pair(0.0)
    fields = np.linspace(900.0, 1100.0, 2 * _FIELD_BLOCK + 7)
    k = 2 * _FIELD_BLOCK + 3
    eigen = compute_branches(template, fields[k : k + 1]).branches.real[0]
    freqs = np.concatenate([np.linspace(27.0, 28.0, 5), np.sort(eigen), [31.5]])
    expected = unscreened_guard(template, fields, freqs)
    assert expected is not None and f"h={fields[k]!r}" in expected
    assert guard_outcome(template, fields, freqs) == expected
    # with damping the same grid clears, and the map is still computed block by block
    damped = lossy_pair(1e-10)
    assert unscreened_guard(damped, fields, freqs) is None
    assert guard_outcome(damped, fields, freqs) is None


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
    from cavmag.core import kittel_frequency

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


def test_thickness_model_validation():
    model = ThicknessModel(slope=0.002, intercept=0.1, t_min=5.0, t_max=100.0)
    assert model.evaluate(10.0) == 0.002 * 10.0 + 0.1
    with pytest.raises(InvalidSystem, match="empty"):
        ThicknessModel(slope=0.002, intercept=0.1, t_min=5.0, t_max=5.0)
    with pytest.raises(NegativeCoupling):
        ThicknessModel(slope=-0.01, intercept=0.1, t_min=5.0, t_max=100.0)


def test_thickness_sweep_applies_both_laws():
    base = two_magnon_template()
    model = ThicknessModel(slope=0.002, intercept=0.1, t_min=5.0, t_max=100.0)
    series = thickness_sweep(base, model, 0.5, 0.1, (5.0, 40.0, 100.0))
    assert [t for t, _ in series] == [5.0, 40.0, 100.0]
    for t, template in series:
        g2 = 0.002 * t + 0.1
        assert template.coupling("yig", "cpw") == g2  # varied defaults to the last magnon
        assert template.coupling("py", "cpw") == 0.5 * g2 + 0.1  # linked defaults to the other
    # base is untouched
    assert base.coupling("yig", "cpw") == 0.21


def test_thickness_sweep_validation():
    base = two_magnon_template()
    model = ThicknessModel(slope=0.002, intercept=0.1, t_min=5.0, t_max=100.0)
    with pytest.raises(InvalidSystem, match="outside model range"):
        thickness_sweep(base, model, 0.5, 0.1, (200.0,))
    with pytest.raises(NegativeCoupling, match="crosslink"):
        thickness_sweep(base, model, -10.0, 0.0, (50.0,))
    with pytest.raises(InvalidSystem, match="differ"):
        thickness_sweep(base, model, 0.5, 0.1, (50.0,), varied_label="yig", linked_label="yig")


def test_thickness_sweep_single_magnon():
    base = SystemTemplate(
        resonator=ModeSpec("cpw", 29.2, 0.01, 0.02),
        magnons=(TemplateMagnon("yig", 0.005, 0.004, YIG),),
        couplings={("cpw", "yig"): 0.2},
    )
    model = ThicknessModel(slope=0.002, intercept=0.1, t_min=5.0, t_max=100.0)
    series = thickness_sweep(base, model, 0.5, 0.1, (20.0,))
    (t, template), = series
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
