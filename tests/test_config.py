"""Config schema: strict parsing, targeted rejections, canonical writing."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from cavmag.config import (
    GridSpec,
    RunConfig,
    dump_config,
    load_config,
    parse_config,
)
from cavmag.errors import ConfigError

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

PY_MATERIAL = {"gamma": 2.94e-3, "four_pi_m": 10900.0}
YIG_MATERIAL = {"gamma": 1.76e-2, "four_pi_m": 1750.0}


def minimal_doc():
    return {
        "version": 1,
        "modes": [
            {"label": "cpw", "alpha": 0.01, "beta": 0.02, "omega": 29.2},
            {"label": "yig", "alpha": 0.005, "beta": 0.004, "material": dict(YIG_MATERIAL)},
        ],
        "couplings": [{"pair": ["cpw", "yig"], "g": 0.25}],
        "field_grid": {"start": 700.0, "stop": 1300.0, "count": 61},
        "freq_grid": {"start": 28.0, "stop": 30.4, "count": 81},
    }


def parse(doc):
    return parse_config(json.dumps(doc))


def expect_rejection(doc, fragment):
    with pytest.raises(ConfigError) as err:
        parse(doc)
    assert fragment in str(err.value)


# ── Happy paths ────────────────────────────────────────────────────────


def test_minimal_config_parses():
    config = parse(minimal_doc())
    assert config.version == 1
    assert config.display_scale == 1.0
    template = config.template()
    assert template.mode_order() == ["yig", "cpw"]
    assert template.coupling("cpw", "yig") == 0.25
    assert config.material_modes() == {"yig": template.magnon("yig").material}


def test_lambda_converts_once_to_beta():
    doc = minimal_doc()
    doc["modes"][1] = {"label": "yig", "alpha": 0.005, "lambda": 0.5,
                       "material": dict(YIG_MATERIAL)}
    config = parse(doc)
    assert config.modes[1].beta == math.pi / 2.0


def test_grid_spec_to_array():
    grid = GridSpec(start=1.0, stop=2.0, count=5)
    assert np.array_equal(grid.to_array(), np.linspace(1.0, 2.0, 5))
    single = GridSpec(start=3.0, stop=3.0, count=1)
    assert np.array_equal(single.to_array(), np.array([3.0]))


def test_shipped_configs_parse_and_are_canonical():
    names = ["full_device.config", "py_only.config", "yig_only.config", "thickness.config"]
    for name in names:
        path = CONFIG_DIR / name
        text = path.read_text(encoding="utf-8")
        config = parse_config(text)
        config.template()
        assert dump_config(config) == text  # shipped files are canonical


def test_write_read_write_is_byte_identical(tmp_path):
    config = parse(minimal_doc())
    first = tmp_path / "a.config"
    second = tmp_path / "b.config"
    first.write_text(dump_config(config), encoding="utf-8")
    second.write_text(dump_config(load_config(first)), encoding="utf-8")
    assert first.read_bytes() == second.read_bytes()


def test_the_model_block_is_built_once_and_shared():
    # template() rebuilt the template parse_config had built and checked
    doc = json.loads((CONFIG_DIR / "full_device.config").read_text(encoding="utf-8"))
    doc["thickness"] = json.loads(
        (CONFIG_DIR / "thickness.config").read_text(encoding="utf-8"))["thickness"]
    config = parse(doc)
    assert config.template() is config.fit.problem.template is config.thickness.template
    assert config.template() is config.template()
    assert config.material_modes() == {m.label: m.material for m in config.template().magnons}
    assert "model=" not in repr(config)
    assert config == parse(doc)


def test_optional_blocks_round_trip():
    doc = minimal_doc()
    doc["noise"] = {"sigma": 0.01, "seed": 42}
    doc["display_scale"] = 0.5
    doc["fit"] = {
        "method": "map",
        "free": [{"name": "g:cpw:yig", "lower": 0.05, "upper": 0.6, "initial": 0.2}],
        "n_ridges": 2,
        "min_separation": 0.05,
    }
    doc["thickness"] = {
        "slope": 0.002, "intercept": 0.1, "t_min": 5.0, "t_max": 100.0,
        "thicknesses": [5.0, 10.0],
        "crosslink": {"slope": 0.5, "intercept": 0.1},
        "varied": "yig",
    }
    config = parse(doc)
    assert config.noise.seed == 42
    assert config.fit.method == "map"
    assert config.fit.n_ridges == 2
    assert config.thickness.slope == 0.002
    assert config.thickness.linked is None
    assert parse_config(dump_config(config)) == config


# ── Rejections ─────────────────────────────────────────────────────────


def test_rejects_invalid_json():
    with pytest.raises(ConfigError, match="not valid JSON"):
        parse_config("{nope")


def test_rejects_unknown_and_missing_keys():
    doc = minimal_doc()
    doc["surprise"] = 1
    expect_rejection(doc, "'surprise'")
    doc = minimal_doc()
    del doc["freq_grid"]
    expect_rejection(doc, "'freq_grid'")


def test_rejects_wrong_version():
    doc = minimal_doc()
    doc["version"] = 2
    expect_rejection(doc, "unsupported version")


def test_rejects_beta_lambda_conflicts():
    doc = minimal_doc()
    doc["modes"][1]["lambda"] = 0.5  # beta already present
    expect_rejection(doc, "exactly one of 'beta' or 'lambda'")
    doc = minimal_doc()
    del doc["modes"][1]["beta"]
    expect_rejection(doc, "exactly one of 'beta' or 'lambda'")


def test_rejects_omega_material_conflicts():
    doc = minimal_doc()
    doc["modes"][0]["material"] = dict(YIG_MATERIAL)  # omega already present
    expect_rejection(doc, "exactly one of 'omega' or 'material'")
    doc = minimal_doc()
    del doc["modes"][0]["omega"]
    expect_rejection(doc, "exactly one of 'omega' or 'material'")


def test_rejects_wrong_resonator_count():
    doc = minimal_doc()
    doc["modes"][1] = {"label": "yig", "alpha": 0.005, "beta": 0.004, "omega": 29.5}
    expect_rejection(doc, "exactly one fixed-frequency mode")
    doc = minimal_doc()
    doc["modes"][0] = {"label": "cpw", "alpha": 0.01, "beta": 0.02,
                       "material": dict(PY_MATERIAL)}
    expect_rejection(doc, "exactly one fixed-frequency mode")


def test_rejects_duplicate_labels():
    doc = minimal_doc()
    doc["modes"][1]["label"] = "cpw"
    expect_rejection(doc, "unique")


def test_rejects_bad_couplings():
    doc = minimal_doc()
    doc["couplings"][0]["pair"] = ["cpw", "nope"]
    expect_rejection(doc, "'nope'")
    doc = minimal_doc()
    doc["couplings"][0]["pair"] = ["cpw"]
    expect_rejection(doc, "two mode labels")
    doc = minimal_doc()
    doc["couplings"][0]["g"] = "strong"
    expect_rejection(doc, "coupling ('cpw', 'yig') must be a finite real, got 'strong'")


def test_rejects_a_coupling_pair_repeated_with_another_value():
    for first, second in ((["cpw", "yig"], ["cpw", "yig"]), (["cpw", "yig"], ["yig", "cpw"])):
        doc = minimal_doc()
        doc["couplings"] = [{"pair": first, "g": 0.25}, {"pair": second, "g": 0.3}]
        expect_rejection(doc, "coupling pair ('cpw', 'yig') given twice with different values")
        doc["couplings"][1]["g"] = 0.25  # an exact repeat names one coupling
        assert parse(doc).template().coupling("cpw", "yig") == 0.25


def test_rejects_bad_grids():
    doc = minimal_doc()
    doc["field_grid"]["count"] = 0
    expect_rejection(doc, "integer >= 1")
    doc = minimal_doc()
    doc["field_grid"] = {"start": 5.0, "stop": 1.0, "count": 10}
    expect_rejection(doc, "below")
    doc = minimal_doc()
    doc["field_grid"] = {"start": 5.0, "stop": 6.0, "count": 1}
    expect_rejection(doc, "start == stop")


def test_rejects_bad_noise():
    doc = minimal_doc()
    doc["noise"] = {"sigma": 0.01, "seed": 1.5}
    expect_rejection(doc, "seed")
    doc = minimal_doc()
    doc["noise"] = {"sigma": -0.01, "seed": 1}
    expect_rejection(doc, "sigma")
    doc = minimal_doc()
    doc["noise"] = {"sigma": 0.01, "seed": -1}
    expect_rejection(doc, "seed")


def test_rejects_bad_fit_block():
    doc = minimal_doc()
    doc["fit"] = {"method": "magic", "free": []}
    expect_rejection(doc, "'map' or 'branches'")
    doc = minimal_doc()
    doc["fit"] = {"method": "map", "free": [{"name": "g:cpw:nope", "lower": 0.0, "upper": 1.0}]}
    expect_rejection(doc, "'nope'")
    doc = minimal_doc()
    doc["fit"] = {"method": "map", "free": [{"name": "g:cpw:yig", "lower": 0.0}]}
    expect_rejection(doc, "'upper'")
    doc = minimal_doc()
    doc["fit"] = {"method": "map", "free": [], "min_separation": 0.0}
    expect_rejection(doc, "min_separation")
    doc = minimal_doc()
    doc["fit"] = {"method": "branches", "free": [], "n_ridges": 0}
    expect_rejection(doc, "fit: n_ridges must be an integer >= 1, got 0")


def test_fit_and_thickness_labels_resolve_against_the_template_on_load():
    doc = minimal_doc()
    doc["fit"] = {"method": "map", "free": [{"name": "omega:yig", "lower": 28.0, "upper": 30.0}]}
    expect_rejection(doc, "omega is only free on the resonator")
    doc["fit"]["free"][0]["name"] = "gamma:cpw"
    expect_rejection(doc, "no magnon labelled 'cpw'")
    doc = minimal_doc()
    doc["thickness"] = {
        "slope": 0.002, "intercept": 0.1, "t_min": 5.0, "t_max": 100.0, "thicknesses": [10.0],
        "crosslink": {"slope": 0.5, "intercept": 0.1},
        "varied": "cpw",  # the resonator has no thickness law
    }
    expect_rejection(doc, "no magnon labelled 'cpw'")


def test_rejects_a_fit_block_naming_both_coupling_aliases():
    doc = minimal_doc()
    doc["fit"] = {"method": "map", "free": [{"name": name, "lower": 0.05, "upper": 0.6}
                                            for name in ("g:cpw:yig", "g:yig:cpw")]}
    expect_rejection(doc, "fit: duplicate free parameters: 'g:cpw:yig' and 'g:yig:cpw'")


def test_fit_block_loads_as_its_fit_problem_and_entry_errors_name_the_entry():
    doc = minimal_doc()
    doc["fit"] = {"method": "map", "free": [{"name": "g:cpw:yig", "lower": 0.05, "upper": 0.6},
                                            {"name": "alpha:yig", "lower": 0, "upper": 1,
                                             "initial": 0}]}
    problem = parse(doc).fit.problem
    assert problem.template == parse(doc).template()
    assert [(p.name, p.lower, p.upper, p.initial) for p in problem.free] == [
        ("g:cpw:yig", 0.05, 0.6, None), ("alpha:yig", 0.0, 1.0, 0.0)]
    assert problem.slots == (("g", (0, 1)), ("alpha", (0,)))
    for entry, text in [
        ({"name": "g:cpw:yig", "lower": 0.6, "upper": 0.05},
         "fit.free[0]: parameter 'g:cpw:yig': bounds [0.6, 0.05] leave no freedom"),
        ({"name": "g:cpw:yig", "lower": "low", "upper": 0.6},
         "fit.free[0]: parameter 'g:cpw:yig': lower must be a finite real, got 'low'"),
        ({"name": "g:cpw:yig", "lower": 0.05, "upper": 0.6, "initial": 0.7},
         "fit.free[0]: parameter 'g:cpw:yig': initial 0.7 outside [0.05, 0.6]"),
        ({"name": "g:cpw:yig", "lower": 0.05, "upper": 0.6, "initial": None},
         "fit.free[0]: 'initial' must be a finite real, got None"),
        ({"name": ["g", "cpw", "yig"], "lower": 0.05, "upper": 0.6},
         "fit.free[0]: parameter name must be a string, got ['g', 'cpw', 'yig']"),
    ]:
        doc["fit"]["free"] = [entry]
        expect_rejection(doc, text)


def test_rejects_bad_thickness_block():
    block = {
        "slope": 0.002, "intercept": 0.1, "t_min": 5.0, "t_max": 100.0,
        "thicknesses": [10.0],
        "crosslink": {"slope": 0.5, "intercept": 0.1},
        "varied": "yig",
    }
    doc = minimal_doc()
    doc["thickness"] = dict(block, varied="nope")
    expect_rejection(doc, "'nope'")
    doc = minimal_doc()
    doc["thickness"] = dict(block, thicknesses=[])
    expect_rejection(doc, "nonempty")
    doc = minimal_doc()
    doc["thickness"] = dict(block, slope=-0.01)  # law dips below zero
    expect_rejection(doc, "thickness: coupling law -0.01 * t + 0.1 dips below zero at t=100.0")
    doc["thickness"] = dict(block, crosslink={"slope": "steep", "intercept": 0.1})
    expect_rejection(doc, "thickness: crosslink_slope must be a finite real, got 'steep'")


def test_rejects_bad_display_scale():
    doc = minimal_doc()
    doc["display_scale"] = 0.0
    expect_rejection(doc, "display_scale")
