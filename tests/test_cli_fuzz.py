"""map, branches and kittel on mutated shipped configs: a documented exit.

Each example mutates configs/full_device.config (grids shrunk to a few
dozen points) the way tests/test_config_fuzz.py does and runs it
through cli.main.  Every run must return an exit code in {0, 2, 3, 4,
5}: no traceback and no warning.  Grid counts are capped at 64, so the
fuzz never allocates large arrays; zero and tiny dampings send probes
through the singularity guard's SVD fallback.  Hypothesis runs
derandomized and without a database, so failures reproduce.
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
from test_config_fuzz import DROP, REPLACEMENTS, SEED, mutated, paths

MAX_COUNT = 64
BASE = copy.deepcopy(SEED)
BASE["field_grid"]["count"] = 24
BASE["freq_grid"]["count"] = 32
PATHS = [p for p in paths(BASE) if p]


def leaf(path):
    node = BASE
    for step in path:
        node = node[step]
    return node


# numbers replaced by numbers get past the parser far more often than
# type swaps, so half the edits keep the schema and move a value
NUMBER_PATHS = [p for p in PATHS if type(leaf(p)) in (int, float)]
NUMBERS = st.one_of(st.sampled_from([0.0, 1e-300, 1e-16, 1e-9, 1e308]),
                    st.floats(-1.0, 40.0), st.integers(0, 10**4))
EDITS = st.lists(st.one_of(st.tuples(st.sampled_from(PATHS), st.one_of(st.just(DROP), REPLACEMENTS)),
                           st.tuples(st.sampled_from(NUMBER_PATHS), NUMBERS)),
                 min_size=1, max_size=3)


def capped(edits) -> dict:
    """BASE mutated by edits, every grid count above MAX_COUNT cut to it."""
    doc = mutated(edits, BASE)
    for grid in ("field_grid", "freq_grid"):
        entry = doc.get(grid)
        count = entry.get("count") if isinstance(entry, dict) else None
        if type(count) is int and MAX_COUNT < count < 2**63:
            entry["count"] = MAX_COUNT
    return doc


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli_fuzz")


def run_commands(doc, workdir):
    config = workdir / "run.config"
    config.write_text(json.dumps(doc), encoding="utf-8")
    argvs = (["map", "--config", str(config), "--out", str(workdir / "map.csv"), "--heatmap"],
             ["branches", "--config", str(config), "--out", str(workdir / "branches.csv")],
             ["kittel", "--config", str(config)])
    codes = []
    for argv in argvs:
        with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            warnings.simplefilter("error")
            codes.append(main(argv))
    return codes


@settings(max_examples=250, deadline=None, derandomize=True, database=None)
@given(edits=EDITS)
@example(edits=[(("modes", 0, "alpha"), 0.0), (("modes", 0, "beta"), 0.0),
                (("modes", 2, "alpha"), 0.0)])
@example(edits=[(("modes", 1, "alpha"), 1e-300), (("modes", 1, "beta"), 0.0),
                (("modes", 2, "beta"), 1e-300)])
@example(edits=[(("modes", 1, "omega"), 1e308)])
def test_mutated_configs_end_in_a_documented_exit(edits, workdir):
    for code in run_commands(capped(edits), workdir):
        assert code in {0, 2, 3, 4, 5}
