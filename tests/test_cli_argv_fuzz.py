"""kittel and synth on fuzzed command lines: a documented exit.

Each example runs configs/full_device.config (grids cut to 6 x 7)
through cli.main with drawn values of kittel's --fields, --freq-scale
and --material, or of synth's --seed: numbers, nan, overflowing and
negative values, empty parts and unknown labels.  Every run must return
an exit code in {0, 2, 3, 4, 5} with no traceback and no warning; an
argparse usage error counts as exit 2.  A kittel run that exits 0
prints only finite frequencies.  Hypothesis runs derandomized and
without a database, so failures reproduce.
"""

import contextlib
import io
import json
import math
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cavmag.cli import main
from test_config_fuzz import CONFIG_DIR

BASE = json.loads((CONFIG_DIR / "full_device.config").read_text(encoding="utf-8"))
BASE["field_grid"]["count"] = 6
BASE["freq_grid"]["count"] = 7

FIELD_PARTS = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "1e400", "-1e400", "", "-1", "-0.0", "0", "1e5",
                     "1e308", "abc"]),
    st.floats(-1e3, 1e7).map(repr),
    st.integers(-10, 10**6).map(str),
)
FIELDS = st.one_of(st.none(), st.lists(FIELD_PARTS, min_size=1, max_size=4).map(",".join))
SCALES = st.one_of(
    st.none(),
    st.sampled_from(["1", "0.5", "1e300", "1e308", "5e-324", "0", "-1", "nan", "inf", "1e400",
                     "abc", ""]),
    st.floats(1e-3, 1e3).map(repr),
)
MATERIALS = st.one_of(st.none(), st.sampled_from(["py", "yig", "cpw", "nope", ""]))
SEEDS = st.one_of(st.sampled_from([-1, -(2**63), 0, 7, 2**64 - 1, 2**64, 2**70]),
                  st.integers(0, 2**32))


@pytest.fixture(scope="module")
def config(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli_argv_fuzz") / "run.config"
    path.write_text(json.dumps(BASE), encoding="utf-8")
    return path


def run(argv) -> tuple[int, str]:
    """(exit code, stdout) of one cli.main call that must not warn."""
    stdout = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(io.StringIO()):
        warnings.simplefilter("error")
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    return code, stdout.getvalue()


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(fields=FIELDS, freq_scale=SCALES, material=MATERIALS)
@example(fields="1e5", freq_scale="1e308", material=None)  # printed inf and exited 0
def test_kittel_argv_ends_in_a_documented_exit(fields, freq_scale, material, config):
    argv = ["kittel", "--config", str(config)]
    argv += [f"--fields={fields}"] if fields is not None else []
    argv += [f"--freq-scale={freq_scale}"] if freq_scale is not None else []
    argv += [f"--material={material}"] if material is not None else []
    code, stdout = run(argv)
    assert code in {0, 2, 3, 4, 5}
    if code == 0:
        header, *rows = stdout.splitlines()
        assert header == "label h_oe omega" and rows
        assert all(math.isfinite(float(row.split()[2])) for row in rows), rows


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(seed=SEEDS)
def test_synth_seed_ends_in_a_documented_exit(seed, config):
    out = config.parent / "synth.csv"
    code, _ = run(["synth", "--config", str(config), "--out", str(out), f"--seed={seed}"])
    assert code in {0, 2, 3, 4, 5}
    assert code == 0 if 0 <= seed < 2**64 else code == 2
