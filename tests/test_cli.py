"""Command-line interface, exercised in process through cli.main."""

import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from cavmag import cli, core, fitting, sweep
from cavmag.cli import main
from cavmag.config import GridSpec, load_config, parse_config
from cavmag.core import kittel_frequency
from cavmag.dataio import format_float, read_spectrum_csv
from cavmag.sweep import SpectrumMap, gap_at_crossing

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

YIG_MATERIAL = {"gamma": 1.76e-2, "four_pi_m": 1750.0}


def small_doc(**extra):
    doc = {
        "version": 1,
        "modes": [
            {"label": "cpw", "alpha": 0.01, "beta": 0.02, "omega": 29.2},
            {"label": "yig", "alpha": 0.005, "beta": 0.004, "material": dict(YIG_MATERIAL)},
        ],
        "couplings": [{"pair": ["cpw", "yig"], "g": 0.25}],
        "field_grid": {"start": 800.0, "stop": 1200.0, "count": 21},
        "freq_grid": {"start": 28.4, "stop": 30.0, "count": 33},
    }
    doc.update(extra)
    return doc


@pytest.fixture
def small_config(tmp_path):
    path = tmp_path / "run.config"
    path.write_text(json.dumps(small_doc()), encoding="utf-8")
    return path


# ── kittel ─────────────────────────────────────────────────────────────


def test_kittel_stdout_and_csv(tmp_path, small_config, capsys):
    out = tmp_path / "kittel.csv"
    rc = main(["kittel", "--config", str(small_config), "--fields", "1000",
               "--out", str(out)])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "label h_oe omega"
    assert lines[1] == "yig 1000 29.18629815512752"
    assert out.read_text(encoding="utf-8").splitlines() == [
        "label,h_oe,omega",
        "yig,1000,29.18629815512752",
    ]


def test_kittel_freq_scale_rescales_stdout_only(tmp_path, small_config, capsys):
    out = tmp_path / "kittel.csv"
    rc = main(["kittel", "--config", str(small_config), "--fields", "1000",
               "--out", str(out), "--freq-scale", "0.5"])
    assert rc == 0
    shown = float(capsys.readouterr().out.splitlines()[1].split()[2])
    stored = float(out.read_text(encoding="utf-8").splitlines()[1].split(",")[2])
    assert shown == 0.5 * stored  # files always keep model units


@pytest.mark.parametrize("scale", ["inf", "-inf", "nan", "0", "-0.5"])
def test_kittel_freq_scale_must_be_a_finite_real_above_0(small_config, capsys, scale):
    # the rule of the config's display_scale; inf printed inf for every frequency
    rc = main(["kittel", "--config", str(small_config), "--fields", "1000", f"--freq-scale={scale}"])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err == f"config error: --freq-scale must be a finite real > 0, got {float(scale)!r}\n"


@pytest.mark.parametrize("source", ["--freq-scale", "display_scale"])
def test_kittel_scale_that_overflows_a_frequency_exits_2_printing_nothing(tmp_path, capsys, source):
    # was exit 0 with "py 100000 inf" and "yig 100000 inf"
    doc = json.loads((CONFIG_DIR / "full_device.config").read_text(encoding="utf-8"))
    argv = ["kittel", "--fields", "1e5", "--out", str(tmp_path / "kittel.csv")]
    if source == "display_scale":
        doc["display_scale"] = 1e308
    else:
        argv.append("--freq-scale=1e308")
    config = tmp_path / "run.config"
    config.write_text(json.dumps(doc), encoding="utf-8")
    rc = main(argv + ["--config", str(config)])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err == ("config error: display scale 1e+308 overflows the frequency "
                            "of 'py' at h=100000\n")
    assert not (tmp_path / "kittel.csv").exists()


@pytest.mark.parametrize("fields", [",", "1000,", ",1000", "1000,,1100", ""])
def test_kittel_fields_rejects_empty_lists_and_parts(small_config, capsys, fields):
    # an empty part was dropped without a word, and "," printed only the header
    rc = main(["kittel", "--config", str(small_config), f"--fields={fields}"])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err == f"config error: --fields expects comma-separated numbers, got {fields!r}\n"


def test_kittel_material_restricts_the_table_to_that_mode(capsys):
    config = CONFIG_DIR / "full_device.config"
    rc = main(["kittel", "--config", str(config), "--material", "yig", "--fields", "1000"])
    assert rc == 0
    omega = kittel_frequency(load_config(config).material_modes()["yig"], 1000.0)
    assert capsys.readouterr().out == f"label h_oe omega\nyig 1000 {format_float(omega)}\n"


def test_kittel_without_a_field_driven_mode_exits_2(tmp_path, capsys):
    config = tmp_path / "run.config"
    config.write_text(json.dumps(small_doc(modes=small_doc()["modes"][:1], couplings=[])),
                      encoding="utf-8")
    assert main(["kittel", "--config", str(config)]) == 2
    assert capsys.readouterr().err == "config error: config has no field-driven mode\n"


def test_kittel_unknown_material(small_config, capsys):
    rc = main(["kittel", "--config", str(small_config), "--material", "iron"])
    assert rc == 2
    assert "'iron'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["kittel", "map", "branches"])
def test_kittel_overflow_exits_2_naming_magnon_and_field(tmp_path, capsys, command):
    # omega = gamma sqrt(h (h + four_pi_m)) overflows from the first field on
    doc = small_doc(field_grid={"start": 200.0, "stop": 1200.0, "count": 21})
    doc["modes"][1]["material"]["four_pi_m"] = 1e308
    config = tmp_path / "overflow.config"
    config.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "out.csv"
    rc = main([command, "--config", str(config), "--out", str(out)])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.err == "error: magnon 'yig': Kittel frequency overflows at h=200\n"
    assert captured.out == "" and not out.exists()


# ── map / branches ─────────────────────────────────────────────────────


def record_writes(monkeypatch):
    """The writers cli calls, in order, as (name, path) pairs."""
    calls = []
    for name in ("write_pgm", "write_spectrum_csv"):
        def writer(path, spectrum, name=name, original=getattr(cli, name)):
            calls.append((name, Path(path).name))
            original(path, spectrum)
        monkeypatch.setattr(cli, name, writer)
    return calls


def test_map_writes_csv_and_heatmap(tmp_path, small_config, monkeypatch):
    calls = record_writes(monkeypatch)
    out = tmp_path / "map.csv"
    rc = main(["map", "--config", str(small_config), "--out", str(out), "--heatmap"])
    assert rc == 0
    spectrum = read_spectrum_csv(out)
    assert spectrum.values.shape == (21, 33)
    pgm = out.with_suffix(".pgm")
    assert pgm.read_bytes().startswith(b"P5\n21 33\n255\n")
    # the heatmap first: truncating it right after the CSV would wait for the CSV's flush
    assert calls == [("write_pgm", "map.pgm"), ("write_spectrum_csv", "map.csv")]


@pytest.mark.parametrize("command", ["map", "synth"])
@pytest.mark.parametrize("name", ["x.pgm", "x.csv.pgm"])
def test_heatmap_refuses_an_out_that_is_its_own_pgm(tmp_path, small_config, monkeypatch, capsys,
                                                    command, name):
    # the heatmap would overwrite the spectrum CSV, or the CSV the heatmap
    for compute in ("compute_map", "synth_map"):
        monkeypatch.setattr(cli, compute, lambda *args: pytest.fail("computed before the check"))
    out = tmp_path / name
    rc = main([command, "--config", str(small_config), "--out", str(out), "--heatmap"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"config error: --out {str(out)!r} is the file --heatmap writes; "
                            "give --out a suffix other than .pgm\n")
    assert list(tmp_path.iterdir()) == [small_config]


def test_map_writes_a_pgm_out_without_heatmap(tmp_path, small_config):
    out = tmp_path / "map.pgm"  # only --heatmap claims the .pgm sibling
    assert main(["map", "--config", str(small_config), "--out", str(out)]) == 0
    assert read_spectrum_csv(out).values.shape == (21, 33)


def test_branches_row_count(tmp_path, small_config):
    out = tmp_path / "branches.csv"
    rc = main(["branches", "--config", str(small_config), "--out", str(out)])
    assert rc == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 1 + 21 * 2  # header + fields x branches


# ── synth ──────────────────────────────────────────────────────────────


def test_synth_is_deterministic_and_seed_overrides(tmp_path):
    config = tmp_path / "run.config"
    config.write_text(json.dumps(small_doc(noise={"sigma": 0.01, "seed": 5})),
                      encoding="utf-8")
    a, b, c = (tmp_path / name for name in ("a.csv", "b.csv", "c.csv"))
    assert main(["synth", "--config", str(config), "--out", str(a)]) == 0
    assert main(["synth", "--config", str(config), "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert main(["synth", "--config", str(config), "--out", str(c), "--seed", "6"]) == 0
    assert a.read_bytes() != c.read_bytes()


def test_synth_without_noise_equals_map(tmp_path, small_config):
    synth_out = tmp_path / "synth.csv"
    map_out = tmp_path / "map.csv"
    assert main(["synth", "--config", str(small_config), "--out", str(synth_out)]) == 0
    assert main(["map", "--config", str(small_config), "--out", str(map_out)]) == 0
    assert synth_out.read_bytes() == map_out.read_bytes()


def test_synth_writes_heatmap_before_csv(tmp_path, small_config, monkeypatch):
    calls = record_writes(monkeypatch)
    out = tmp_path / "synth.csv"
    assert main(["synth", "--config", str(small_config), "--out", str(out), "--heatmap"]) == 0
    assert calls == [("write_pgm", "synth.pgm"), ("write_spectrum_csv", "synth.csv")]
    assert read_spectrum_csv(out).values.shape == (21, 33)
    assert out.with_suffix(".pgm").read_bytes().startswith(b"P5\n21 33\n255\n")


def test_synth_noise_overflow_exits_2_without_warning_or_file(tmp_path, capsys):
    doc = json.loads((CONFIG_DIR / "yig_only.config").read_text(encoding="utf-8"))
    doc["field_grid"]["count"], doc["freq_grid"]["count"] = 5, 7
    doc["noise"] = {"sigma": 1e308, "seed": 3}
    config = tmp_path / "run.config"
    config.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "synth.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["synth", "--config", str(config), "--out", str(out), "--heatmap"])
    assert rc == 2
    assert "overflows the map" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [config]


def test_map_rejects_a_coupling_pair_repeated_with_another_value(tmp_path, capsys):
    doc = json.loads((CONFIG_DIR / "yig_only.config").read_text(encoding="utf-8"))
    doc["field_grid"]["count"], doc["freq_grid"]["count"] = 5, 7
    doc["couplings"] = [{"pair": ["cpw", "yig"], "g": 0.25}, {"pair": ["cpw", "yig"], "g": 0.3}]
    config = tmp_path / "run.config"
    config.write_text(json.dumps(doc), encoding="utf-8")
    rc = main(["map", "--config", str(config), "--out", str(tmp_path / "map.csv")])
    assert rc == 2
    assert "coupling pair ('cpw', 'yig') given twice with different values" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [config]


def test_synth_rejects_bad_seed(tmp_path, small_config, capsys):
    out = tmp_path / "x.csv"
    rc = main(["synth", "--config", str(small_config), "--out", str(out),
               "--seed", "-3"])
    assert rc == 2
    assert "seed" in capsys.readouterr().err


# ── fit ────────────────────────────────────────────────────────────────


def test_fit_self_data_no_free_parameters(tmp_path, capsys):
    config = tmp_path / "run.config"
    config.write_text(json.dumps(small_doc(fit={"method": "map", "free": []})),
                      encoding="utf-8")
    data = tmp_path / "data.csv"
    assert main(["map", "--config", str(config), "--out", str(data)]) == 0
    report = tmp_path / "report.txt"
    rc = main(["fit", "--config", str(config), "--data", str(data),
               "--out", str(report)])
    assert rc == 0
    text = report.read_text(encoding="utf-8")
    assert "converged: true" in text
    assert "residual: 0" in text.splitlines()[2]


def test_fit_recovers_coupling_via_cli(tmp_path, capsys):
    fit_block = {
        "method": "map",
        "free": [{"name": "g:cpw:yig", "lower": 0.05, "upper": 0.6, "initial": 0.15}],
    }
    config = tmp_path / "run.config"
    config.write_text(json.dumps(small_doc(fit=fit_block)), encoding="utf-8")
    data = tmp_path / "data.csv"
    assert main(["map", "--config", str(config), "--out", str(data)]) == 0
    rc = main(["fit", "--config", str(config), "--data", str(data)])
    assert rc == 0
    report = capsys.readouterr().out
    line = next(ln for ln in report.splitlines() if ln.startswith("parameter: g:cpw:yig"))
    value = float(line.split()[3])
    assert abs(value - 0.25) / 0.25 < 1e-4


def test_fit_that_stops_unconverged_exits_4(tmp_path, monkeypatch, capsys):
    # README: exit 4 when the fit did not converge; one LM step from 0.15 cannot reach 0.25
    fit_block = {
        "method": "map",
        "free": [{"name": "g:cpw:yig", "lower": 0.05, "upper": 0.6, "initial": 0.15}],
    }
    config = tmp_path / "run.config"
    config.write_text(json.dumps(small_doc(fit=fit_block)), encoding="utf-8")
    data = tmp_path / "data.csv"
    assert main(["map", "--config", str(config), "--out", str(data)]) == 0
    monkeypatch.setattr(fitting, "MAX_ITERATIONS", 1)
    rc = main(["fit", "--config", str(config), "--data", str(data)])
    report = capsys.readouterr().out.splitlines()
    assert rc == 4
    assert "converged: false" in report and "iterations: 1" in report


def test_a_box_naming_both_coupling_aliases_is_refused_on_load(tmp_path, capsys):
    doc = json.loads((CONFIG_DIR / "yig_only.config").read_text(encoding="utf-8"))
    doc["fit"]["free"] = [{"name": name, "lower": 0.05, "upper": 0.6, "initial": 0.125}
                          for name in ("g:cpw:yig", "g:yig:cpw")]
    config = tmp_path / "run.config"
    config.write_text(json.dumps(doc), encoding="utf-8")
    for argv in (["synth", "--out", str(tmp_path / "data.csv")],
                 ["fit", "--data", str(tmp_path / "missing.csv")]):
        assert main(argv + ["--config", str(config)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("config error: fit: duplicate free parameters: "
                                "'g:cpw:yig' and 'g:yig:cpw'\n")
    assert list(tmp_path.iterdir()) == [config]


@pytest.mark.parametrize("command", ["map", "synth", "fit"])
def test_reversed_fit_bounds_exit_2_on_load_before_any_data_is_read(tmp_path, capsys, command):
    doc = json.loads((CONFIG_DIR / "yig_only.config").read_text(encoding="utf-8"))
    doc["fit"]["free"][0].update(lower=0.6, upper=0.05)
    config = tmp_path / "run.config"
    config.write_text(json.dumps(doc), encoding="utf-8")
    files = (["--data", str(tmp_path / "missing.csv")] if command == "fit"
             else ["--out", str(tmp_path / "out.csv")])
    assert main([command, "--config", str(config)] + files) == 2
    assert capsys.readouterr().err == ("config error: fit.free[0]: parameter 'g:cpw:yig': "
                                       "bounds [0.6, 0.05] leave no freedom\n")
    assert list(tmp_path.iterdir()) == [config]


def test_parameters_freed_without_initial_start_from_the_template_clipped_into_the_box():
    fit_block = {"method": "map", "free": [
        {"name": "alpha:yig", "lower": 0.0, "upper": 0.1},       # template 0.005
        {"name": "beta:cpw", "lower": 0.03, "upper": 0.1},       # template 0.02
        {"name": "omega:cpw", "lower": 28.0, "upper": 29.1},     # template 29.2
        {"name": "gamma:yig", "lower": 0.01, "upper": 0.02, "initial": 0.015}]}
    config = parse_config(json.dumps(small_doc(fit=fit_block)))
    data = SpectrumMap(np.array([1000.0]), np.array([29.0, 29.2]), np.zeros((1, 2), complex))
    problem, ridges = cli._resolve_fit_problem(config, data)
    assert [p.initial for p in problem.free] == [0.005, 0.03, 29.1, 0.015]
    assert problem.template is config.fit.problem.template
    assert ridges is None  # no coupling needs a guess and the fit is a map fit


def test_dampings_freed_without_initial_recover_from_template_values_off_the_truth(tmp_path, capsys):
    # noise-free 96 x 128 full_device map; the fit config's freed dampings
    # are x0.5 and x1.5 the synthesis truth, every other number true
    doc = json.loads((CONFIG_DIR / "full_device.config").read_text(encoding="utf-8"))
    doc["field_grid"]["count"], doc["freq_grid"]["count"] = 96, 128
    del doc["fit"]
    truth_config = tmp_path / "truth.config"
    truth_config.write_text(json.dumps(doc), encoding="utf-8")
    data = tmp_path / "data.csv"
    assert main(["map", "--config", str(truth_config), "--out", str(data)]) == 0
    modes = {mode["label"]: mode for mode in doc["modes"]}
    truth = {}
    for name, factor in (("alpha:cpw", 0.5), ("beta:cpw", 1.5), ("alpha:yig", 1.5),
                         ("beta:py", 0.5)):
        kind, label = name.split(":")
        truth[name] = modes[label][kind]
        modes[label][kind] *= factor
    doc["fit"] = {"method": "map",
                  "free": [{"name": name, "lower": 0.0, "upper": 0.1} for name in truth]}
    config = tmp_path / "fit.config"
    config.write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    assert main(["fit", "--config", str(config), "--data", str(data)]) == 0
    lines = capsys.readouterr().out.splitlines()
    fitted = {line.split()[1]: float(line.split()[3]) for line in lines
              if line.startswith("parameter:")}
    assert fitted.keys() == truth.keys()
    for name, value in truth.items():
        assert abs(fitted[name] - value) <= 1e-6 * value, name


def test_fit_missing_row_exits_5(tmp_path, capsys):
    config = tmp_path / "run.config"
    config.write_text(json.dumps(small_doc(fit={"method": "map", "free": []})),
                      encoding="utf-8")
    data = tmp_path / "data.csv"
    assert main(["map", "--config", str(config), "--out", str(data)]) == 0
    lines = data.read_text(encoding="utf-8").splitlines()
    del lines[5]
    data.write_text("\n".join(lines) + "\n", encoding="utf-8")
    rc = main(["fit", "--config", str(config), "--data", str(data)])
    assert rc == 5
    assert "incomplete grid" in capsys.readouterr().err


def test_fit_non_finite_data_exits_5(tmp_path, capsys):
    config = tmp_path / "run.config"
    config.write_text(json.dumps(small_doc(fit={"method": "map", "free": []})),
                      encoding="utf-8")
    data = tmp_path / "data.csv"
    assert main(["map", "--config", str(config), "--out", str(data)]) == 0
    lines = data.read_text(encoding="utf-8").splitlines()
    parts = lines[7].split(",")
    parts[2] = "inf"
    lines[7] = ",".join(parts)
    data.write_text("\n".join(lines) + "\n", encoding="utf-8")
    rc = main(["fit", "--config", str(config), "--data", str(data)])
    assert rc == 5
    assert "line 8: non-finite value" in capsys.readouterr().err


def test_fit_data_not_utf8_exits_5(tmp_path, capsys):
    config = tmp_path / "run.config"
    config.write_text(json.dumps(small_doc(fit={"method": "map", "free": []})),
                      encoding="utf-8")
    data = tmp_path / "data.csv"
    data.write_bytes(b"h_oe,omega,re_s21,im_s21\n1,2,3,\xff\n")
    rc = main(["fit", "--config", str(config), "--data", str(data)])
    assert rc == 5
    assert "line 2: byte 0xff is not valid UTF-8" in capsys.readouterr().err


def test_config_not_utf8_exits_2(tmp_path, capsys):
    config = tmp_path / "bad.config"
    config.write_bytes(b'{"version": 1\xff}')
    rc = main(["map", "--config", str(config), "--out", str(tmp_path / "out.csv")])
    assert rc == 2
    assert "config error: line 1: byte 0xff is not valid UTF-8" in capsys.readouterr().err


def branch_doc(fit):
    """Criterion-5 dampings on a 121 x 401 full-device grid, with fit block fit."""
    return small_doc(
        modes=[
            {"label": "py", "alpha": 0.003, "beta": 0.002,
             "material": {"gamma": 2.94e-3, "four_pi_m": 10900.0}},
            {"label": "cpw", "alpha": 0.002, "beta": 0.005, "omega": 29.2},
            {"label": "yig", "alpha": 0.001, "beta": 0.001, "material": dict(YIG_MATERIAL)},
        ],
        couplings=[{"pair": ["py", "cpw"], "g": 0.2}, {"pair": ["cpw", "yig"], "g": 0.21}],
        field_grid={"start": 200.0, "stop": 6800.0, "count": 121},
        freq_grid={"start": 27.2, "stop": 31.2, "count": 401},
        fit=fit,
    )


def fit_counting_ridge_extractions(tmp_path, monkeypatch, doc) -> tuple[int, list]:
    """Exit code of a fit of doc to its own map, and the extract_ridges calls it made."""
    config = tmp_path / "run.config"
    config.write_text(json.dumps(doc), encoding="utf-8")
    data = tmp_path / "data.csv"
    assert main(["map", "--config", str(config), "--out", str(data)]) == 0
    calls = []
    extract = cli.extract_ridges
    monkeypatch.setattr(cli, "extract_ridges", lambda *args: calls.append(args) or extract(*args))
    return main(["fit", "--config", str(config), "--data", str(data)]), calls


def test_branch_fit_extracts_ridges_once(tmp_path, monkeypatch, capsys):
    doc = branch_doc({"method": "branches",
                      "free": [{"name": "g:py:cpw", "lower": 0.02, "upper": 0.6},
                               {"name": "g:cpw:yig", "lower": 0.02, "upper": 0.6}]})
    rc, calls = fit_counting_ridge_extractions(tmp_path, monkeypatch, doc)
    assert rc == 0, capsys.readouterr().err
    assert len(calls) == 1


def test_branch_fit_with_every_initial_given_extracts_ridges_once(tmp_path, monkeypatch, capsys):
    # the benchmark's branch-fit shape: explicit initials, n_ridges and min_separation
    step = 4.0 / 400
    doc = branch_doc({"method": "branches", "n_ridges": 3, "min_separation": 20.0 * step,
                      "free": [{"name": "g:py:cpw", "lower": 0.02, "upper": 0.6, "initial": 0.26},
                               {"name": "g:cpw:yig", "lower": 0.02, "upper": 0.6,
                                "initial": 0.147}]})
    rc, calls = fit_counting_ridge_extractions(tmp_path, monkeypatch, doc)
    assert rc == 0, capsys.readouterr().err
    assert [args[1:] for args in calls] == [(3, 20.0 * step)]
    fitted = [float(line.split()[3]) for line in capsys.readouterr().out.splitlines()
              if line.startswith("parameter:")]
    assert fitted == pytest.approx([0.2, 0.21], rel=0.02)  # the benchmark check's tolerance


@pytest.mark.parametrize("name", ["g:cpw", "g:cpw:yig:cpw", "alpha:cpw:yig", "beta"])
def test_fit_parameter_label_count_exits_2(tmp_path, capsys, name):
    fit_block = {"method": "map", "free": [{"name": name, "lower": 0.05, "upper": 0.6}]}
    config = tmp_path / "run.config"
    config.write_text(json.dumps(small_doc(fit=fit_block)), encoding="utf-8")
    data = tmp_path / "data.csv"
    data.write_text("unused\n", encoding="utf-8")
    rc = main(["fit", "--config", str(config), "--data", str(data)])
    assert rc == 2
    assert "config error:" in capsys.readouterr().err


def test_fit_crossing_field_overflow_exits_2_naming_magnon(tmp_path, capsys):
    # (4 pi M)^2 overflows in the crossing field behind the default
    # coupling guess; RuntimeWarnings fail the suite, so none may escape
    data = tmp_path / "data.csv"
    data_config = tmp_path / "data.config"
    data_config.write_text(json.dumps(small_doc()), encoding="utf-8")
    assert main(["map", "--config", str(data_config), "--out", str(data)]) == 0
    doc = small_doc(fit={"method": "map",
                         "free": [{"name": "g:cpw:yig", "lower": 0.05, "upper": 0.6}]})
    doc["modes"][1]["material"]["four_pi_m"] = 1e308
    config = tmp_path / "overflow.config"
    config.write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    rc = main(["fit", "--config", str(config), "--data", str(data)])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.err == ("error: magnon 'yig': Kittel field overflows at "
                            "omega=29.199999999999999\n")
    assert captured.out == ""


@pytest.mark.parametrize("command", ["thickness", "fit"])
def test_kittel_slope_overflow_exits_2_naming_magnon(tmp_path, capsys, command):
    # gamma = 1e308 overflows the Kittel slope behind the crossing window,
    # which sizes both the gap scan and the default coupling guess
    data = tmp_path / "data.csv"
    data_config = tmp_path / "data.config"
    data_config.write_text(json.dumps(small_doc()), encoding="utf-8")
    assert main(["map", "--config", str(data_config), "--out", str(data)]) == 0
    doc = small_doc(fit={"method": "map",
                         "free": [{"name": "g:cpw:yig", "lower": 0.05, "upper": 0.6}]},
                    thickness={"slope": 0.002, "intercept": 0.1, "t_min": 5.0, "t_max": 100.0,
                               "thicknesses": [20.0], "crosslink": {"slope": 0.5, "intercept": 0.1},
                               "varied": "yig"})
    doc["modes"][1]["material"]["gamma"] = 1e308
    config = tmp_path / "overflow.config"
    config.write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    argv = (["thickness", "--out", str(tmp_path / "t.csv")] if command == "thickness"
            else ["fit", "--data", str(data)])
    rc = main(argv + ["--config", str(config)])
    assert rc == 2
    assert capsys.readouterr().err == "error: magnon 'yig': Kittel slope overflows at h=1\n"


def test_fit_without_fit_block_exits_2(tmp_path, small_config, capsys):
    data = tmp_path / "data.csv"
    assert main(["map", "--config", str(small_config), "--out", str(data)]) == 0
    rc = main(["fit", "--config", str(small_config), "--data", str(data)])
    assert rc == 2
    assert "fit" in capsys.readouterr().err


# ── thickness ──────────────────────────────────────────────────────────


def test_thickness_without_thickness_block_exits_2(tmp_path, small_config, capsys):
    out = tmp_path / "thickness.csv"
    rc = main(["thickness", "--config", str(small_config), "--out", str(out)])
    assert rc == 2 and not out.exists()
    assert capsys.readouterr().err == "config error: config has no 'thickness' block\n"


@pytest.mark.parametrize("edit, text", [
    ({"thicknesses": [5.0, 200.0]}, "thickness 200.0 outside model range [5.0, 100.0]"),
    ({"linked": "yig"}, "varied and linked magnon must differ"),
    ({"crosslink": {"slope": -10.0, "intercept": 0.1}}, "crosslink gives g=-1.0 at t=5.0"),
    ({"slope": 1e307}, "coupling ('cpw', 'yig') must be a finite real, got inf"),  # g2(100) = inf
])
@pytest.mark.parametrize("command", ["kittel", "map", "branches", "synth", "fit", "thickness"])
def test_a_bad_thickness_block_exits_2_on_load_for_every_subcommand(tmp_path, capsys, command,
                                                                    edit, text):
    doc = json.loads((CONFIG_DIR / "thickness.config").read_text(encoding="utf-8"))
    doc["thickness"].update(edit)
    config = tmp_path / "run.config"
    config.write_text(json.dumps(doc), encoding="utf-8")
    files = ["--out", str(tmp_path / "out.csv")]
    if command == "fit":
        files += ["--data", str(tmp_path / "missing.csv")]
    elif command == "thickness":
        files += ["--maps-dir", str(tmp_path / "maps")]
    assert main([command, "--config", str(config)] + files) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"config error: thickness: {text}\n")
    assert list(tmp_path.iterdir()) == [config]


def test_thickness_single_row_and_maps_dir(tmp_path, capsys):
    doc = small_doc(thickness={
        "slope": 0.002, "intercept": 0.1, "t_min": 5.0, "t_max": 100.0,
        "thicknesses": [20.0],
        "crosslink": {"slope": 0.5, "intercept": 0.1},
        "varied": "yig",
    })
    config = tmp_path / "run.config"
    config.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "thickness.csv"
    maps_dir = tmp_path / "maps"
    rc = main(["thickness", "--config", str(config), "--out", str(out),
               "--maps-dir", str(maps_dir)])
    assert rc == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 2
    t, g1, g2, gap_p1, gap_p2 = (float(v) for v in lines[1].split(","))
    assert (t, g1, gap_p1) == (20.0, 0.0, 0.0)  # no linked magnon in a 2-mode run
    assert g2 == 0.002 * 20.0 + 0.1
    assert abs(gap_p2 - 2.0 * g2) / (2.0 * g2) < 0.02
    assert (maps_dir / "map_t20.csv").exists()
    # trend fits need two rows, so a one-point series prints none
    assert "g2_of_t" not in capsys.readouterr().out


def test_thickness_infinite_gap_window_exits_2_naming_magnon_and_coupling(tmp_path, capsys):
    doc = json.loads((CONFIG_DIR / "thickness.config").read_text(encoding="utf-8"))
    doc["thickness"]["intercept"] = 1e308
    doc["freq_grid"]["stop"] = 10000.0
    config = tmp_path / "huge.config"
    config.write_text(json.dumps(doc), encoding="utf-8")
    rc = main(["thickness", "--config", str(config), "--out", str(tmp_path / "t.csv")])
    assert rc == 2
    assert capsys.readouterr().err == (
        "error: magnon 'yig': gap window [0, inf] is not finite (coupling 1e+308)\n")


def test_thickness_without_linked_magnon_varies_only_the_named_one(tmp_path):
    doc = json.loads((CONFIG_DIR / "thickness.config").read_text(encoding="utf-8"))
    del doc["thickness"]["linked"]
    doc["thickness"]["thicknesses"] = [5.0]
    config = tmp_path / "unlinked.config"
    config.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "thickness.csv"
    assert main(["thickness", "--config", str(config), "--out", str(out)]) == 0
    t, g1, g2, gap_p1, gap_p2 = out.read_text(encoding="utf-8").splitlines()[1].split(",")
    assert (t, g1, g2, gap_p1) == ("5", "0", "0.11", "0")
    # py keeps its config coupling while yig's follows the thickness law
    template = load_config(config).template().with_couplings({("yig", "cpw"): 0.11})
    assert gap_p2 == format_float(gap_at_crossing(template, "yig").gap)


# ── exit codes ─────────────────────────────────────────────────────────


def test_missing_config_exits_3(tmp_path, capsys):
    rc = main(["map", "--config", str(tmp_path / "nope.config"),
               "--out", str(tmp_path / "out.csv")])
    assert rc == 3
    assert "io error" in capsys.readouterr().err


def test_malformed_config_exits_2(tmp_path, capsys):
    config = tmp_path / "bad.config"
    config.write_text("{not json", encoding="utf-8")
    rc = main(["map", "--config", str(config), "--out", str(tmp_path / "out.csv")])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("edit, named", [
    ({"couplings": [{"pair": ["cpw", "yig"], "g": 10**400}]}, "coupling ('cpw', 'yig') must be a finite real"),
    ({"field_grid": {"start": 800.0, "stop": 1200.0, "count": 10**400}}, "field_grid"),
], ids=["coupling", "count"])
def test_integer_too_large_exits_2_naming_it(tmp_path, capsys, edit, named):
    config = tmp_path / "big.config"
    config.write_text(json.dumps(small_doc(**edit)), encoding="utf-8")
    rc = main(["map", "--config", str(config), "--out", str(tmp_path / "out.csv")])
    assert rc == 2
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("command", ["kittel", "map", "branches", "synth", "fit", "thickness"])
def test_lambda_whose_beta_overflows_exits_2_naming_the_mode(tmp_path, capsys, command):
    doc = small_doc(noise={"sigma": 0.01, "seed": 1})
    del doc["modes"][1]["beta"]
    doc["modes"][1]["lambda"] = 1e200  # 2 pi lambda^2 is past the float range
    config = tmp_path / "big.config"
    config.write_text(json.dumps(doc), encoding="utf-8")
    rc = main([command, "--config", str(config), "--out", str(tmp_path / "out.csv"),
               *(["--data", str(tmp_path / "none.csv")] if command == "fit" else [])])
    assert rc == 2
    assert capsys.readouterr().err == (
        "config error: modes[1]: magnon 'yig': beta must be a finite real >= 0, got inf\n")


def test_shipped_configs_drive_map(tmp_path):
    rc = main(["map", "--config", str(CONFIG_DIR / "yig_only.config"),
               "--out", str(tmp_path / "yig.csv")])
    assert rc == 0


def test_shipped_thickness_config_prints_trends(tmp_path, capsys):
    rc = main(["thickness", "--config", str(CONFIG_DIR / "thickness.config"),
               "--out", str(tmp_path / "thick.csv")])
    assert rc == 0
    out = capsys.readouterr().out
    trend = next(ln for ln in out.splitlines() if ln.startswith("g2_of_t:"))
    crosslink = next(ln for ln in out.splitlines() if ln.startswith("g1_of_g2:"))
    assert float(trend.split()[-1]) > 0.999      # r_squared of the gap trend
    assert float(crosslink.split()[-1]) > 0.999


@pytest.mark.parametrize("argv", [["map", "--out", "out.csv"], ["branches", "--out", "out.csv"],
                                  ["synth", "--out", "out.csv"], ["kittel"]],
                         ids=["map", "branches", "synth", "kittel"])
def test_grid_too_large_for_memory_exits_2_naming_the_grids(tmp_path, small_config, capsys,
                                                            monkeypatch, argv):
    # whether a huge allocation is refused depends on the OS overcommit
    # mode, so the refusal is simulated instead of requested
    def refuse(self):
        raise MemoryError

    monkeypatch.setattr(GridSpec, "to_array", refuse)
    monkeypatch.chdir(tmp_path)
    rc = main(argv + ["--config", str(small_config)])
    assert rc == 2
    assert capsys.readouterr().err == (
        "config error: field_grid (21 points) x freq_grid (33 points) does not fit in memory\n")


def test_map_too_large_for_memory_exits_2(tmp_path, small_config, capsys, monkeypatch):
    def refuse(*args):
        raise MemoryError

    monkeypatch.setattr(cli, "compute_map", refuse)
    rc = main(["map", "--config", str(small_config), "--out", str(tmp_path / "out.csv")])
    assert rc == 2
    assert "does not fit in memory" in capsys.readouterr().err


def test_damping_overflow_exits_2_naming_the_mode(tmp_path, capsys):
    doc = small_doc()
    doc["modes"][1]["beta"] = 1e308
    config = tmp_path / "overflow.config"
    config.write_text(json.dumps(doc), encoding="utf-8")
    rc = main(["map", "--config", str(config), "--out", str(tmp_path / "out.csv")])
    assert rc == 2
    assert capsys.readouterr().err == (
        "config error: mode 'yig': damping overflows the coupling matrix (alpha=0.0050000000000000001, "
        "beta=1e+308)\n")


# ── one model build per run ────────────────────────────────────────────


def count_model_tables(monkeypatch) -> list:
    """A list that gains an entry per core._model_table run: the one
    validation of a model record, looked up in core (HybridSystem) and in
    sweep (SystemTemplate)."""
    runs, model_table = [], core._model_table

    def counted(*args):
        runs.append(args[0])
        return model_table(*args)

    monkeypatch.setattr(sweep, "_model_table", counted)
    monkeypatch.setattr(core, "_model_table", counted)
    return runs


@pytest.mark.parametrize("name", ["yig_only", "thickness"])
def test_each_run_builds_its_model_once(tmp_path, monkeypatch, capsys, name):
    # map, branches and synth built it twice (parse_config, then template())
    config = str(CONFIG_DIR / f"{name}.config")
    data = str(tmp_path / "data.csv")
    runs = count_model_tables(monkeypatch)
    argvs = [["kittel", "--config", config, "--fields", "1000"],
             ["map", "--config", config, "--out", str(tmp_path / "map.csv"), "--heatmap"],
             ["branches", "--config", config, "--out", str(tmp_path / "branches.csv")],
             ["synth", "--config", config, "--out", data]]
    if name == "yig_only":
        argvs.append(["fit", "--config", config, "--data", data])
    for argv in argvs:
        runs.clear()
        assert main(argv) == 0, argv
        assert len(runs) == 1, argv


def test_thickness_builds_one_template_per_row(tmp_path, monkeypatch, capsys):
    # was 15: the parse's build, then two per row
    config = CONFIG_DIR / "thickness.config"
    rows = len(load_config(config).thickness.rows)
    runs = count_model_tables(monkeypatch)
    assert main(["thickness", "--config", str(config), "--out", str(tmp_path / "th.csv")]) == 0
    assert rows == 7 and len(runs) == 1 + rows
