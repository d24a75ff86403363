"""synth on mutated noise settings: a documented exit and a readable file.

Each example sets noise.sigma and noise.seed of configs/yig_only.config
(grids cut to 5 x 7) and maybe --seed and --heatmap, from pools of
edge values: zero, subnormal, overflowing and negative sigmas, a boolean,
seeds at and past the unsigned 64-bit range, negative and fractional
seeds.  Every run must return an exit code in {0, 2, 3, 5} with no
warning; a run that exits 0 writes a CSV that reads back through
read_spectrum_csv, and any other run writes no file.  Hypothesis runs
derandomized and without a database, so failures reproduce.
"""

import contextlib
import io
import json
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cavmag.cli import main
from cavmag.dataio import read_spectrum_csv
from test_config_fuzz import CONFIG_DIR

BASE = json.loads((CONFIG_DIR / "yig_only.config").read_text(encoding="utf-8"))
BASE["field_grid"]["count"] = 5
BASE["freq_grid"]["count"] = 7
SIGMAS = st.sampled_from([0, 5e-324, 0.01, 1e154, 1e300, 6e307, 1e308, -0.0, -1, True])
SEEDS = st.sampled_from([0, 1, 2**64 - 1, 2**64, -1, 1.5])


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli_synth_fuzz")


def run(argv) -> int:
    with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        warnings.simplefilter("error")
        try:
            return main(argv)
        except SystemExit as exc:  # argparse rejects a fractional --seed
            return exc.code


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(sigma=SIGMAS, seed=SEEDS, cli_seed=st.one_of(st.none(), SEEDS), heatmap=st.booleans())
@example(sigma=1e308, seed=3, cli_seed=None, heatmap=True)
def test_mutated_noise_ends_in_a_documented_exit(sigma, seed, cli_seed, heatmap, workdir):
    config = workdir / "synth.config"
    config.write_text(json.dumps(dict(BASE, noise={"sigma": sigma, "seed": seed})),
                      encoding="utf-8")
    out = workdir / "synth.csv"
    for path in (out, out.with_suffix(".pgm")):
        path.unlink(missing_ok=True)
    argv = ["synth", "--config", str(config), "--out", str(out)]
    argv += ["--heatmap"] if heatmap else []
    argv += ["--seed", str(cli_seed)] if cli_seed is not None else []
    code = run(argv)
    assert code in {0, 2, 3, 5}
    if code == 0:
        spectrum = read_spectrum_csv(out)
        assert spectrum.values.shape == (5, 7)
        assert out.with_suffix(".pgm").exists() == heatmap
    else:
        assert not out.exists()
