"""Command-line interface, exercised in process through cli.main."""

import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from cavmag import cli
from cavmag.cli import main
from cavmag.config import GridSpec, load_config
from cavmag.dataio import format_float, read_spectrum_csv
from cavmag.sweep import gap_at_crossing

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


def test_map_writes_csv_and_heatmap(tmp_path, small_config):
    out = tmp_path / "map.csv"
    rc = main(["map", "--config", str(small_config), "--out", str(out), "--heatmap"])
    assert rc == 0
    spectrum = read_spectrum_csv(out)
    assert spectrum.values.shape == (21, 33)
    pgm = out.with_suffix(".pgm")
    assert pgm.read_bytes().startswith(b"P5\n21 33\n255\n")


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


def test_fit_rejects_a_box_naming_both_coupling_aliases(tmp_path, capsys):
    doc = json.loads((CONFIG_DIR / "yig_only.config").read_text(encoding="utf-8"))
    doc["field_grid"]["count"], doc["freq_grid"]["count"] = 21, 31
    del doc["noise"]
    doc["fit"]["free"] = [{"name": name, "lower": 0.05, "upper": 0.6, "initial": 0.125}
                          for name in ("g:cpw:yig", "g:yig:cpw")]
    config = tmp_path / "run.config"
    config.write_text(json.dumps(doc), encoding="utf-8")
    data = tmp_path / "data.csv"
    assert main(["synth", "--config", str(config), "--out", str(data)]) == 0
    rc = main(["fit", "--config", str(config), "--data", str(data)])
    captured = capsys.readouterr()
    assert rc == 2
    assert "converged" not in captured.out
    assert "duplicate free parameters: 'g:cpw:yig' and 'g:yig:cpw'" in captured.err


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


def test_branch_fit_extracts_ridges_once(tmp_path, monkeypatch, capsys):
    doc = small_doc(
        modes=[
            {"label": "py", "alpha": 0.003, "beta": 0.002,
             "material": {"gamma": 2.94e-3, "four_pi_m": 10900.0}},
            {"label": "cpw", "alpha": 0.002, "beta": 0.005, "omega": 29.2},
            {"label": "yig", "alpha": 0.001, "beta": 0.001, "material": dict(YIG_MATERIAL)},
        ],
        couplings=[{"pair": ["py", "cpw"], "g": 0.2}, {"pair": ["cpw", "yig"], "g": 0.21}],
        field_grid={"start": 200.0, "stop": 6800.0, "count": 121},
        freq_grid={"start": 27.2, "stop": 31.2, "count": 401},
        fit={"method": "branches", "free": [{"name": "g:py:cpw", "lower": 0.02, "upper": 0.6},
                                            {"name": "g:cpw:yig", "lower": 0.02, "upper": 0.6}]},
    )
    config = tmp_path / "run.config"
    config.write_text(json.dumps(doc), encoding="utf-8")
    data = tmp_path / "data.csv"
    assert main(["map", "--config", str(config), "--out", str(data)]) == 0
    calls = []
    extract = cli.extract_ridges
    monkeypatch.setattr(cli, "extract_ridges", lambda *args: calls.append(args) or extract(*args))
    rc = main(["fit", "--config", str(config), "--data", str(data)])
    assert rc == 0, capsys.readouterr().err
    assert len(calls) == 1


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
    template = load_config(config).template().with_coupling("yig", "cpw", 0.11)
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
    ({"couplings": [{"pair": ["cpw", "yig"], "g": 10**400}]}, "'g'"),
    ({"field_grid": {"start": 800.0, "stop": 1200.0, "count": 10**400}}, "field_grid"),
], ids=["coupling", "count"])
def test_integer_too_large_exits_2_naming_it(tmp_path, capsys, edit, named):
    config = tmp_path / "big.config"
    config.write_text(json.dumps(small_doc(**edit)), encoding="utf-8")
    rc = main(["map", "--config", str(config), "--out", str(tmp_path / "out.csv")])
    assert rc == 2
    assert named in capsys.readouterr().err


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
