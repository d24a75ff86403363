"""fit and thickness on mutated shipped configs: a documented exit.

The fit fuzz mutates the free parameters (names, bounds, initials), the
modes and the couplings of configs/full_device.config with its grids cut
to 24 x 32, and fits a map synthesized once from the unmutated config.
The thickness fuzz mutates the thickness block of
configs/thickness.config, with its grids cut to 24 x 32 so that
--maps-dir stays cheap.  Every run must return an exit code in {0, 2, 3,
4, 5}: no traceback and no warning.  Hypothesis runs derandomized and
without a database, so failures reproduce.
"""

import contextlib
import copy
import io
import json
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cavmag.cli import main
from test_cli_fuzz import BASE, NUMBERS, PATHS as CLI_PATHS
from test_config_fuzz import CONFIG_DIR, DROP, REPLACEMENTS, mutated, paths

FIT_BASE = copy.deepcopy(BASE)
del FIT_BASE["thickness"]
FREE = FIT_BASE["fit"]["free"]
FIT_PATHS = ([p for p in CLI_PATHS if p[0] in ("modes", "couplings")]
             + [p for p in paths(FREE, ("fit", "free")) if len(p) > 2]
             + [("fit", "free", k, "initial") for k in range(len(FREE))])
FIT_NUMBER_PATHS = [p for p in FIT_PATHS
                    if p[-1] in ("lower", "upper", "initial", "g", "alpha", "beta", "omega",
                                 "gamma", "four_pi_m")]
NAMES = st.sampled_from(["g:py:cpw", "g:cpw:yig", "g:py:yig", "g:cpw:cpw", "g:cpw:nope", "g:cpw",
                         "alpha:cpw", "alpha:py", "beta:yig", "beta:cpw", "omega:cpw",
                         "omega:yig", "gamma:yig", "gamma:cpw", "four_pi_m:py", "mass:py"])
SIGNED = st.one_of(NUMBERS, NUMBERS.map(lambda v: -v))
FIT_EDITS = st.lists(st.one_of(
    st.tuples(st.sampled_from(FIT_PATHS), st.one_of(st.just(DROP), REPLACEMENTS)),
    st.tuples(st.sampled_from(FIT_NUMBER_PATHS), SIGNED),
    st.tuples(st.sampled_from([("fit", "free", k, "name") for k in range(len(FREE))]), NAMES),
), min_size=1, max_size=3)

THICKNESS_BASE = json.loads((CONFIG_DIR / "thickness.config").read_text(encoding="utf-8"))
THICKNESS_BASE["field_grid"]["count"] = 24
THICKNESS_BASE["freq_grid"]["count"] = 32
THICKNESS_PATHS = [p for p in paths(THICKNESS_BASE["thickness"], ("thickness",)) if len(p) > 1]
THICKNESS_EDITS = st.lists(st.one_of(
    st.tuples(st.sampled_from(THICKNESS_PATHS), st.one_of(st.just(DROP), REPLACEMENTS)),
    st.tuples(st.sampled_from(THICKNESS_PATHS), SIGNED),
), min_size=1, max_size=3)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A scratch directory holding the map synthesized from FIT_BASE."""
    path = tmp_path_factory.mktemp("cli_fit_fuzz")
    (path / "base.config").write_text(json.dumps(FIT_BASE), encoding="utf-8")
    assert run(["synth", "--config", str(path / "base.config"), "--out", str(path / "data.csv")]) == 0
    return path


def run(argv) -> int:
    with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        warnings.simplefilter("error")
        return main(argv)


def free(k, **values):
    """Edits that set fields of fit.free[k]."""
    return [(("fit", "free", k, key), value) for key, value in values.items()]


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(edits=FIT_EDITS)
@example(edits=free(0, name="g:py:yig", lower=0.0, upper=0.1, initial=0.0))
@example(edits=free(0, name="gamma:yig", lower=0.0, upper=0.05, initial=0.0176))
@example(edits=free(0, name="beta:cpw", lower=0.0, upper=1e300, initial=0.02))
@example(edits=free(1, lower=-1.0))
@example(edits=[(("modes", 2, "material", "gamma"), 1e308)])
def test_mutated_fit_configs_end_in_a_documented_exit(edits, workdir):
    config = workdir / "fit.config"
    config.write_text(json.dumps(mutated(edits, FIT_BASE)), encoding="utf-8")
    assert run(["fit", "--config", str(config), "--data", str(workdir / "data.csv")]) in {
        0, 2, 3, 4, 5}


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(edits=THICKNESS_EDITS)
@example(edits=[(("thickness", "intercept"), 1e308)])
def test_mutated_thickness_blocks_end_in_a_documented_exit(edits, workdir):
    config = workdir / "thickness.config"
    config.write_text(json.dumps(mutated(edits, THICKNESS_BASE)), encoding="utf-8")
    maps = workdir / "maps"
    maps.mkdir(exist_ok=True)
    argv = ["thickness", "--config", str(config), "--out", str(workdir / "th.csv"),
            "--maps-dir", str(maps)]
    assert run(argv) in {0, 2, 3, 4, 5}
