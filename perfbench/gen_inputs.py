"""Seeded inputs for the benchmark workloads.

One seed fixes every drawn value: the two device couplings (uniform on
[0.15, 0.25]), the noise seed of the noisy map, and the film-thickness
law with its crosslink.  The draws do not depend on the workload, so a
seed describes the same device everywhere.  Grid sizes are fixed.

Run as a script it writes one workload's configs and data CSVs, plus
``truth.json`` with the generating values, into a directory:

    PYTHONPATH=src python3 perfbench/gen_inputs.py --workload fit_map --seed 1 --out DIR

The data CSVs are built with ``cavmag.synth_map`` and
``cavmag.dataio.write_spectrum_csv``, the same routes users take.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import numpy as np
from cavmag.config import load_config
from cavmag.dataio import write_spectrum_csv
from cavmag.synth import NoiseSpec, synth_map

from run import WORKLOAD_NAMES

# Dampings of the shipped full-device config (alpha, beta).
DEVICE_DAMPINGS = {"py": (0.02, 0.006), "cpw": (0.01, 0.02), "yig": (0.005, 0.004)}
# Low dampings of acceptance criterion 5, where gap = 2g holds to well under 1%.
LOW_DAMPINGS = {"py": (0.003, 0.002), "cpw": (0.002, 0.005), "yig": (0.001, 0.001)}
MATERIALS = {"py": {"gamma": 0.00294, "four_pi_m": 10900.0},
             "yig": {"gamma": 0.0176, "four_pi_m": 1750.0}}
RESONATOR_OMEGA = 29.2

# Criterion-3 fit grid and criterion-5 branch grid: one window around each crossing.
FIT_FIELDS = ((700.0, 1300.0, 31), (5450.0, 6310.0, 31))
FIT_FREQS = (27.2, 31.2, 101)
BRANCH_FIELDS = ((700.0, 1300.0, 41), (5450.0, 6310.0, 41))
BRANCH_FREQS = (27.2, 31.2, 2001)
THICKNESSES = [5.0, 10.0, 20.0, 40.0, 60.0, 80.0, 100.0]
NOISE_SIGMA = 0.01


def draw(seed: int) -> dict:
    """Every seeded value of one benchmark run."""
    rng = np.random.default_rng(seed)
    g1, g2 = (float(v) for v in rng.uniform(0.15, 0.25, 2))
    return {
        "g_py_cpw": g1,
        "g_cpw_yig": g2,
        "noise_seed": int(rng.integers(0, 2**32)),
        "thickness_slope": float(rng.uniform(0.0015, 0.0025)),
        "thickness_intercept": float(rng.uniform(0.08, 0.12)),
        "crosslink_slope": float(rng.uniform(0.4, 0.6)),
        "crosslink_intercept": float(rng.uniform(0.08, 0.12)),
    }


def _windows(spec) -> np.ndarray:
    return np.concatenate([np.linspace(lo, hi, n) for lo, hi, n in spec])


def _config(truth: dict, dampings: dict, fields=(200.0, 6800.0, 501),
            freqs=(27.2, 31.2, 401), **blocks) -> dict:
    modes = []
    for label in ("py", "cpw", "yig"):
        alpha, beta = dampings[label]
        mode = {"label": label, "alpha": alpha, "beta": beta}
        if label == "cpw":
            mode["omega"] = RESONATOR_OMEGA
        else:
            mode["material"] = MATERIALS[label]
        modes.append(mode)
    doc = {
        "version": 1,
        "modes": modes,
        "couplings": [{"pair": ["py", "cpw"], "g": truth["g_py_cpw"]},
                      {"pair": ["cpw", "yig"], "g": truth["g_cpw_yig"]}],
        "field_grid": {"start": fields[0], "stop": fields[1], "count": fields[2]},
        "freq_grid": {"start": freqs[0], "stop": freqs[1], "count": freqs[2]},
    }
    doc.update(blocks)
    return doc


def _fit_block(method: str, truth: dict, lower: float, upper: float,
               factors: tuple[float, float], **extra) -> dict:
    return {
        "method": method,
        "free": [
            {"name": "g:py:cpw", "lower": lower, "upper": upper,
             "initial": truth["g_py_cpw"] * factors[0]},
            {"name": "g:cpw:yig", "lower": lower, "upper": upper,
             "initial": truth["g_cpw_yig"] * factors[1]},
        ],
        **extra,
    }


def _write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _write_map(path: Path, config_path: Path, fields, freqs, sigma: float, seed: int) -> None:
    template = load_config(config_path).template()
    write_spectrum_csv(path, synth_map(template, fields, freqs, NoiseSpec(sigma=sigma, seed=seed)))


def write_inputs(workload: str, seed: int, out: Path) -> dict:
    """Write one workload's inputs into out; returns the file names and truth."""
    truth = draw(seed)
    files: dict[str, str] = {}
    if workload == "map_full":
        _write_json(out / "map.config", _config(truth, DEVICE_DAMPINGS))
        files["config"] = "map.config"
    elif workload == "fit_map":
        doc = _config(truth, DEVICE_DAMPINGS,
                      fit=_fit_block("map", truth, 0.05, 0.5, (1.5, 0.5)))
        _write_json(out / "fit.config", doc)
        _write_map(out / "fit_data.csv", out / "fit.config", _windows(FIT_FIELDS),
                   np.linspace(*FIT_FREQS), NOISE_SIGMA, truth["noise_seed"])
        files.update(config="fit.config", data="fit_data.csv")
    elif workload == "branches_thickness":
        thickness = {
            "slope": truth["thickness_slope"], "intercept": truth["thickness_intercept"],
            "t_min": THICKNESSES[0], "t_max": THICKNESSES[-1], "thicknesses": THICKNESSES,
            "crosslink": {"slope": truth["crosslink_slope"],
                          "intercept": truth["crosslink_intercept"]},
            "varied": "yig", "linked": "py",
        }
        _write_json(out / "thickness.config",
                    _config(truth, LOW_DAMPINGS, fields=(200.0, 6800.0, 121),
                            freqs=(27.2, 31.2, 161), thickness=thickness))
        step = (BRANCH_FREQS[1] - BRANCH_FREQS[0]) / (BRANCH_FREQS[2] - 1)
        fit = _fit_block("branches", truth, 0.02, 0.6, (1.3, 0.7),
                         n_ridges=3, min_separation=20.0 * step)
        _write_json(out / "branches.config", _config(truth, LOW_DAMPINGS, fit=fit))
        _write_map(out / "branches_data.csv", out / "branches.config",
                   _windows(BRANCH_FIELDS), np.linspace(*BRANCH_FREQS), 0.0, 0)
        files.update(config="thickness.config", fit_config="branches.config",
                     data="branches_data.csv")
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOAD_NAMES}")
    manifest = {"workload": workload, "seed": seed, "truth": truth, "files": files}
    _write_json(out / "truth.json", manifest)
    return manifest


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)
    write_inputs(args.workload, args.seed, args.out)


if __name__ == "__main__":
    main()
