"""parse_config on mutated shipped configs: a RunConfig or a CavmagError.

The seed document is configs/full_device.config with the thickness
block of configs/thickness.config (same mode labels), so every block of
the schema is present.  Each example replaces or drops a few values at
random paths: type swaps, huge integers, null, booleans, other
containers.  Hypothesis runs derandomized and without a database, so
failures reproduce.
"""

import copy
import json
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cavmag.config import parse_config
from cavmag.errors import CavmagError, ConfigError

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
SEED = json.loads((CONFIG_DIR / "full_device.config").read_text(encoding="utf-8"))
SEED["thickness"] = json.loads((CONFIG_DIR / "thickness.config").read_text(encoding="utf-8"))[
    "thickness"]

REPLACEMENTS = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.sampled_from([10**400, -(10**400), 2**64]),
    st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(["", "py", "cpw", "yig"]),
    st.just([]), st.just({}), st.just(["py", "yig"]), st.just({"py": 1}),
)


def paths(node, prefix=()):
    """Every path to a value of a JSON document, containers included."""
    yield prefix
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(
        node, list) else ()
    for key, child in children:
        yield from paths(child, prefix + (key,))


PATHS = [p for p in paths(SEED) if p]


DROP = object()  # an edit that deletes the value


def mutated(edits, base=SEED) -> dict:
    """base with each (path, value) edit applied where the path still exists."""
    doc = copy.deepcopy(base)
    for (*parents, key), value in edits:
        try:
            node = doc
            for step in parents:
                node = node[step]
            if value is DROP:
                del node[key]
            else:
                node[key] = copy.deepcopy(value)
        except (KeyError, IndexError, TypeError):  # an earlier edit removed the path
            pass
    return doc


EDITS = st.lists(st.tuples(st.sampled_from(PATHS), st.one_of(st.just(DROP), REPLACEMENTS)),
                 min_size=1, max_size=3)


def parsed_or_error(document: str):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            config = parse_config(document)
        except CavmagError:
            return None
    # a parsed grid is small enough to build; the fuzz never builds huge ones
    for grid in (config.field_grid, config.freq_grid):
        if grid.count <= 10**6:
            grid.to_array()
    return config


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(edits=EDITS)
@example(edits=[(("couplings", 0, "g"), 10**400)])
@example(edits=[(("field_grid", "count"), 10**400)])
def test_mutated_configs_parse_or_raise_cavmag_errors(edits):
    parsed_or_error(json.dumps(mutated(edits)))


@pytest.mark.parametrize("path, value, named", [
    (("couplings", 0, "g"), 10**400, r"coupling \('py', 'cpw'\) must be a finite real"),
    (("modes", 1, "omega"), -(10**400), r"modes\[1\]: mode 'cpw': omega must be a finite real >= 0"),
    (("thickness", "thicknesses", 2), 10**400, "thickness value"),
    (("field_grid", "count"), 10**400, "field_grid"),
    (("freq_grid", "count"), 2**63, "freq_grid"),
], ids=["coupling", "omega", "thickness", "field_count", "freq_count"])
def test_integers_too_large_are_config_errors(path, value, named):
    with pytest.raises(ConfigError, match=named):
        parse_config(json.dumps(mutated([(path, value)])))


def test_integer_past_the_digit_limit_is_a_config_error():
    text = json.dumps(SEED).replace('"g": 0.2,', '"g": ' + "9" * 5000 + ",", 1)
    with pytest.raises(ConfigError, match="not valid JSON"):
        parse_config(text)
