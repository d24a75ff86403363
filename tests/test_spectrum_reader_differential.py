"""The array spectrum reader against the line parser it stands in for.

read_spectrum_csv parses plain files with np.loadtxt and array checks
and hands everything else to the line parser.  For every file, mutated
or not, both routes must agree exactly: the same fields, freqs and
values bit for bit, or the same DataFormatError message and line.
Hypothesis runs derandomized, so failures reproduce.
"""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cavmag.dataio import (
    SPECTRUM_HEADER,
    _load_plain_rows,
    _read_spectrum_lines,
    read_spectrum_csv,
    write_spectrum_csv,
)
from cavmag.errors import DataFormatError
from cavmag.sweep import SpectrumMap

# Replacement tokens: other spellings of numbers, non-finite values and
# strings float() and np.loadtxt might treat differently.
TOKENS = (
    "nan", "inf", "-inf", "1e400", "-1e400", "1e-400", "1_0", "\uff11", "\u0661",
    "-0", "+0", "0", ".5", "5.", "+.5E+1", "007", "1e5", "1E5", " 1", "1 ", "\t1",
    "", "+", "-", ".", "e", "1e", "--1", "1-2", "0x10", "1,5", "1.2.3",
)
PLAIN_TEXT = st.text(alphabet="0123456789+-.eE", max_size=6)

MUTATIONS = (
    "none", "drop_row", "duplicate_row", "swap_rows", "compensating_columns",
    "blank_line", "whitespace_line", "crlf", "crlf_one_line", "lone_cr", "token",
    "plain_token", "no_final_newline", "header_only", "header_no_newline", "empty",
    "line_separator", "trailing_comma",
)


def outcome(reader, path):
    """What a reader makes of a file: its arrays' bits, or its error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            spectrum = reader(path)
        except DataFormatError as exc:
            return ("error", str(exc), exc.line)
    return ("map", spectrum.values.shape,
            spectrum.fields.tobytes(), spectrum.freqs.tobytes(), spectrum.values.tobytes())


def random_map(rng, n_fields, n_freqs):
    fields = np.cumsum(rng.uniform(0.5, 400.0, n_fields)) - rng.uniform(0.0, 50.0)
    freqs = np.cumsum(rng.uniform(1e-3, 2.0, n_freqs)) + 25.0
    values = rng.normal(size=(n_fields, n_freqs)) + 1j * rng.normal(size=(n_fields, n_freqs))
    specials = np.array([0.0, -0.0, 5e-324, -1e-310, 1e300, 1.0])
    mask = rng.random(values.shape) < 0.2
    values.real[mask] = rng.choice(specials, mask.sum())
    mask = rng.random(values.shape) < 0.2
    values.imag[mask] = rng.choice(specials, mask.sum())
    return SpectrumMap(fields, freqs, values)


def mutate(text, mutation, rng, token="", column=0):
    header, *rows = text.split("\n")[:-1]  # written files end in "\n"
    n = len(rows)
    i, j = (int(v) for v in rng.integers(0, n, 2))
    if mutation == "drop_row":
        del rows[i]
    elif mutation == "duplicate_row":
        rows.insert(i, rows[i])
    elif mutation == "swap_rows":
        rows[i], rows[j] = rows[j], rows[i]
    elif mutation == "compensating_columns":
        rows[i] += ",0"
        rows[j] = rows[j].rsplit(",", 1)[0]
    elif mutation == "blank_line":
        rows.insert(i, "")
    elif mutation == "whitespace_line":
        rows.insert(i, str(rng.choice([" ", "\t", "  \t"])))
    elif mutation == "lone_cr":  # a bare CR ends row i
        rows[i:i + 2] = ["\r".join(rows[i:i + 2])]
    elif mutation == "line_separator":
        rows[i] += str(rng.choice(["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                                   "\u2028", "\u2029"]))
    elif mutation in ("token", "plain_token"):
        parts = rows[i].split(",")
        parts[column % len(parts)] = token
        rows[i] = ",".join(parts)
    elif mutation == "trailing_comma":
        rows[i] += ","
    body = "".join(row + "\n" for row in [header, *rows])
    if mutation == "crlf":
        body = body.replace("\n", "\r\n")
    elif mutation == "crlf_one_line":
        body = body.replace("\n", "\r\n", 1 + i)
    elif mutation == "no_final_newline":
        body = body[:-1]
    elif mutation == "header_only":
        body = SPECTRUM_HEADER + "\n"
    elif mutation == "header_no_newline":
        body = SPECTRUM_HEADER
    elif mutation == "empty":
        body = ""
    return body


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), n_fields=st.integers(1, 4), n_freqs=st.integers(1, 4),
       mutation=st.sampled_from(MUTATIONS), token=st.sampled_from(TOKENS),
       column=st.integers(0, 3), plain_token=PLAIN_TEXT)
@example(seed=1, n_fields=2, n_freqs=3, mutation="token", token="1e400", column=2,
         plain_token="")
@example(seed=2, n_fields=3, n_freqs=2, mutation="token", token="-1e400", column=0,
         plain_token="")
@example(seed=3, n_fields=2, n_freqs=2, mutation="token", token="-0", column=1,
         plain_token="")
def test_reader_agrees_with_line_parser(tmp_path_factory, seed, n_fields, n_freqs, mutation,
                                        token, column, plain_token):
    rng = np.random.default_rng(seed)
    path = tmp_path_factory.mktemp("map") / "map.csv"
    write_spectrum_csv(path, random_map(rng, n_fields, n_freqs))
    text = path.read_text(encoding="utf-8")
    if mutation == "plain_token":
        token = plain_token
    path.write_bytes(mutate(text, mutation, rng, token, column).encode("utf-8"))
    assert outcome(read_spectrum_csv, path) == outcome(_read_spectrum_lines, path)


@pytest.mark.parametrize("mutation", ["none", "no_final_newline", "swap_rows"])
def test_plain_files_take_the_array_route(tmp_path, mutation):
    # guards that refused every file would make the agreement above vacuous
    rng = np.random.default_rng(5)
    path = tmp_path / "map.csv"
    write_spectrum_csv(path, random_map(rng, 3, 4))
    path.write_bytes(mutate(path.read_text(encoding="utf-8"), mutation, rng).encode())
    rows = _load_plain_rows(path)
    assert rows is not None and rows.shape == (12, 4)


@pytest.mark.parametrize("mutation", [
    "blank_line", "whitespace_line", "crlf", "lone_cr", "line_separator", "header_only",
    "compensating_columns", "trailing_comma",
])
def test_other_files_go_to_the_line_parser(tmp_path, mutation):
    rng = np.random.default_rng(6)
    path = tmp_path / "map.csv"
    write_spectrum_csv(path, random_map(rng, 3, 4))
    path.write_bytes(mutate(path.read_text(encoding="utf-8"), mutation, rng).encode())
    assert _load_plain_rows(path) is None
    assert outcome(read_spectrum_csv, path) == outcome(_read_spectrum_lines, path)


@pytest.mark.parametrize("newline", ["\r\n", "\r"])
def test_crlf_and_cr_files_read_like_lf_files(tmp_path, newline):
    # the line parser reads with universal newlines; the array route
    # leaves such files to it
    spectrum = random_map(np.random.default_rng(8), 3, 2)
    path = tmp_path / "map.csv"
    write_spectrum_csv(path, spectrum)
    lf = outcome(read_spectrum_csv, path)
    path.write_bytes(path.read_bytes().replace(b"\n", newline.encode()))
    assert outcome(read_spectrum_csv, path) == lf


def test_compressed_suffix_is_read_as_plain_text(tmp_path):
    # np.loadtxt would open a *.gz path as gzip; the reader hands it a handle
    rng = np.random.default_rng(7)
    spectrum = random_map(rng, 2, 3)
    path = tmp_path / "map.csv.gz"
    write_spectrum_csv(path, spectrum)
    assert outcome(read_spectrum_csv, path) == outcome(_read_spectrum_lines, path)
    assert _load_plain_rows(path) is not None
