"""One scalar rule: every model number is checked once, by the record or
entry point that owns it, and stored as the float the rule returns."""

import json
import math

import numpy as np
import pytest

from cavmag.config import dump_config, parse_config
from cavmag.core import (
    YIG,
    HybridSystem,
    KittelMaterial,
    ModeSpec,
    field_for_frequency,
    kittel_frequency,
    kittel_slope,
    lambda_to_beta,
    s21,
)
from cavmag.errors import InvalidSystem, NegativeField, NegativeFrequency
from cavmag.fitting import FreeParameter, extract_ridges
from cavmag.sweep import (
    SpectrumMap,
    SystemTemplate,
    TemplateMagnon,
    ThicknessSeries,
    compute_branches,
    compute_map,
)
from cavmag.synth import NoiseSpec

CPW = ModeSpec("cpw", 29.2, 0.01, 0.02)
YIG_MODE = ModeSpec("yig", 29.0, 0.005, 0.004)
TEMPLATE = SystemTemplate(CPW, (TemplateMagnon("yig", 0.005, 0.004, YIG),), {("cpw", "yig"): 0.25})
SPECTRUM = SpectrumMap(np.array([1.0]), np.array([1.0, 2.0, 3.0]), np.zeros((1, 3), complex))


def series(thickness=10, slope=1, intercept=0, law=(0.002, 0.1, 5.0, 100.0)):
    """A one-thickness series of TEMPLATE, its numbers as given."""
    return ThicknessSeries(TEMPLATE, *law, (thickness,), slope, intercept, "yig")


# each builds one record or calls one entry point with v in a single scalar slot
ENTRY_POINTS = {
    "ModeSpec.omega": lambda v: ModeSpec("a", v, 0.01, 0.02),
    "ModeSpec.alpha": lambda v: ModeSpec("a", 29.0, v, 0.02),
    "ModeSpec.beta": lambda v: ModeSpec("a", 29.0, 0.01, v),
    "KittelMaterial.gamma": lambda v: KittelMaterial(v, 1750.0),
    "KittelMaterial.four_pi_m": lambda v: KittelMaterial(1.76e-2, v),
    "TemplateMagnon.alpha": lambda v: TemplateMagnon("yig", v, 0.004, YIG),
    "TemplateMagnon.beta": lambda v: TemplateMagnon("yig", 0.005, v, YIG),
    "ThicknessSeries.slope": lambda v: series(law=(v, 0.1, 5.0, 100.0)),
    "ThicknessSeries.intercept": lambda v: series(law=(0.002, v, 5.0, 100.0)),
    "ThicknessSeries.t_min": lambda v: series(law=(0.002, 0.1, v, 100.0)),
    "ThicknessSeries.t_max": lambda v: series(law=(0.002, 0.1, 5.0, v)),
    "ThicknessSeries.thicknesses": lambda v: series(thickness=v),
    "ThicknessSeries.crosslink_slope": lambda v: series(slope=v),
    "ThicknessSeries.crosslink_intercept": lambda v: series(intercept=v),
    "FreeParameter.lower": lambda v: FreeParameter("g:cpw:yig", v, 0.5, 0.2),
    "FreeParameter.upper": lambda v: FreeParameter("g:cpw:yig", 0.1, v, 0.2),
    "FreeParameter.initial": lambda v: FreeParameter("g:cpw:yig", 0.1, 0.5, v),
    "NoiseSpec.sigma": lambda v: NoiseSpec(v, 0),
    "lambda_to_beta": lambda_to_beta,
    "s21.omega": lambda v: s21(HybridSystem((CPW,)), v),
    "HybridSystem.coupling": lambda v: HybridSystem((CPW, YIG_MODE), {(0, 1): v}),
    "SystemTemplate.coupling": lambda v: SystemTemplate(
        CPW, (TemplateMagnon("yig", 0.005, 0.004, YIG),), {("cpw", "yig"): v}),
    "extract_ridges.min_separation": lambda v: extract_ridges(SPECTRUM, 1, v),
}


@pytest.mark.parametrize("value", [True, 10**400, math.nan, math.inf, "1"],
                         ids=["bool", "int_past_float", "nan", "inf", "str"])
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_every_scalar_rejects_what_is_not_a_finite_real(entry, value):
    with pytest.raises(InvalidSystem, match=r"must be a finite real.*, got "):
        ENTRY_POINTS[entry](value)


HUGE = 10**400  # an int past the float range

# array entry points: each converts its fields or frequencies once
ARRAY_ENTRY_POINTS = {
    "kittel_frequency": (lambda v: kittel_frequency(YIG, v), NegativeField,
                         "applied field must be finite and >= 0, got "),
    "kittel_slope": (lambda v: kittel_slope(YIG, v), NegativeField,
                     "applied field must be finite and > 0, got "),
    "field_for_frequency": (lambda v: field_for_frequency(YIG, v), NegativeFrequency,
                            "target frequency must be finite and >= 0, got "),
    "compute_map.fields": (lambda v: compute_map(TEMPLATE, v, [29.0]), InvalidSystem,
                           "fields must be finite, got "),
    "compute_map.freqs": (lambda v: compute_map(TEMPLATE, [1000.0], v), InvalidSystem,
                          "freqs must be finite, got "),
    "compute_branches": (lambda v: compute_branches(TEMPLATE, v), InvalidSystem,
                         "fields must be finite, got "),
}


@pytest.mark.parametrize("value", [HUGE, -HUGE, [1000.0, HUGE], [[HUGE]]],
                         ids=["int", "negative_int", "in_list", "nested"])
@pytest.mark.parametrize("entry", sorted(ARRAY_ENTRY_POINTS))
def test_array_entry_points_reject_an_int_past_the_float_range(entry, value):
    # was a bare OverflowError from the float conversion; now the entry's own text
    call, error, text = ARRAY_ENTRY_POINTS[entry]
    if entry.startswith("compute"):  # a grid axis is 1-D
        value = np.ravel(np.array(value, dtype=object)).tolist()
    with pytest.raises(error) as info:
        call(value)
    assert str(info.value).startswith(text)


def test_records_store_int_fields_as_floats():
    records = [
        (ModeSpec("a", 1, 0, 0), ("omega", "alpha", "beta")),
        (KittelMaterial(1, 1750), ("gamma", "four_pi_m")),
        (TemplateMagnon("yig", 0, 1, YIG), ("alpha", "beta")),
        (series(law=(0, 1, 5, 100)), ("slope", "intercept", "t_min", "t_max")),
        (series(), ("crosslink_slope", "crosslink_intercept")),
        (FreeParameter("g:cpw:yig", 0, 1, 1), ("lower", "upper", "initial")),
        (NoiseSpec(0, 3), ("sigma",)),
    ]
    for record, names in records:
        for name in names:
            value = getattr(record, name)
            assert type(value) is float and value == int(value), (record, name)
    assert ModeSpec("a", 1, 0, 0).omega == 1.0
    assert [type(v) for v in series().thicknesses + series().rows[0][:2]] == [float] * 3
    system = HybridSystem((CPW, YIG_MODE), {(1, 0): 1})
    assert type(system.couplings[(0, 1)]) is float
    assert type(lambda_to_beta(1)) is float


def test_lambda_past_the_float_range_is_a_beta_the_mode_rejects():
    assert lambda_to_beta(1e200) == math.inf  # no OverflowError from squaring
    with pytest.raises(InvalidSystem, match="beta must be a finite real >= 0, got inf"):
        ModeSpec("a", 29.0, 0.01, lambda_to_beta(1e200))


def test_bounds_are_part_of_the_one_message():
    with pytest.raises(InvalidSystem, match=r"^mode 'a': alpha must be a finite real >= 0, got -0.01$"):
        ModeSpec("a", 29.0, -0.01, 0.02)
    with pytest.raises(InvalidSystem, match=r"^material constant gamma must be a finite real > 0, got 0$"):
        KittelMaterial(0, 1750.0)
    with pytest.raises(InvalidSystem, match=r"^min_separation must be a finite real > 0, got 0.0$"):
        extract_ridges(SPECTRUM, 1, 0.0)


# Every number a record owns written as a JSON integer.
INTEGER_DOC = {
    "version": 1,
    "display_scale": 2,
    "modes": [
        {"label": "py", "alpha": 0, "beta": 1, "material": {"gamma": 1, "four_pi_m": 10900}},
        {"label": "cpw", "alpha": 0, "lambda": 0, "omega": 29},
        {"label": "yig", "alpha": 1, "beta": 0, "material": {"gamma": 2, "four_pi_m": 1750}},
    ],
    "couplings": [{"pair": ["py", "cpw"], "g": 1}, {"pair": ["yig", "cpw"], "g": 0},
                  {"pair": ["py", "yig"], "g": 0}],
    "field_grid": {"start": 700, "stop": 1300, "count": 61},
    "freq_grid": {"start": 28, "stop": 30, "count": 81},
    "noise": {"sigma": 0, "seed": 3},
    "fit": {"method": "branches", "n_ridges": 2, "min_separation": 1,
            "free": [{"name": "g:cpw:yig", "lower": 0, "upper": 1, "initial": 1}]},
    "thickness": {"slope": 0, "intercept": 1, "t_min": 1, "t_max": 100, "thicknesses": [5, 10],
                  "crosslink": {"slope": 1, "intercept": 0}, "varied": "yig", "linked": "py"},
}


def test_integer_config_dumps_every_model_number_as_a_float():
    # the canonical text: every number a float, except the counts, the
    # seed and n_ridges; lambda becomes beta
    expected = json.loads(json.dumps(INTEGER_DOC), parse_int=float)
    expected["version"] = 1
    expected["field_grid"]["count"], expected["freq_grid"]["count"] = 61, 81
    expected["noise"]["seed"] = 3
    expected["fit"]["n_ridges"] = 2
    del expected["modes"][1]["lambda"]
    expected["modes"][1]["beta"] = 0.0
    text = dump_config(parse_config(json.dumps(INTEGER_DOC)))
    assert text == json.dumps(expected, indent=2, sort_keys=True) + "\n"
    assert dump_config(parse_config(text)) == text
