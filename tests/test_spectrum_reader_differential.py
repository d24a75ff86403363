"""The array spectrum reader against the line parser it stands in for.

read_spectrum_csv parses plain files with an exact array parser and
array checks and hands everything else to the line parser.  For every
file, mutated or not, and for reads of any size, both routes must agree
exactly: the same fields, freqs and values bit for bit, or the same
DataFormatError message and line.
Hypothesis runs derandomized, so failures reproduce.
"""

import importlib
import math
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cavmag import dataio
from cavmag.dataio import (
    SPECTRUM_HEADER,
    _read_plain,
    _read_spectrum_lines,
    read_spectrum_csv,
    write_spectrum_csv,
)
from cavmag.errors import DataFormatError
from cavmag.sweep import SpectrumMap

# Replacement tokens: other spellings of numbers, non-finite values and
# strings float() and the array parser might treat differently.
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
def test_plain_files_take_the_array_route(tmp_path, monkeypatch, mutation):
    # guards that refused every file would make the agreement above vacuous
    rng = np.random.default_rng(5)
    path = tmp_path / "map.csv"
    write_spectrum_csv(path, random_map(rng, 3, 4))
    path.write_bytes(mutate(path.read_text(encoding="utf-8"), mutation, rng).encode())
    parsed = []

    def decimals(*args):
        parsed.append(parse(*args))
        return parsed[-1]

    parse = dataio._decimals
    monkeypatch.setattr(dataio, "_decimals", decimals)
    spectrum = _read_plain(path)
    # every row's s21 tokens went through the array parser; only the
    # order check refuses the swapped rows
    assert sum(part.size for part in parsed) == 2 * 12
    if mutation == "swap_rows":
        assert spectrum is None
    else:
        assert spectrum is not None and spectrum.values.shape == (3, 4)


@pytest.mark.parametrize("mutation", [
    "blank_line", "whitespace_line", "crlf", "lone_cr", "line_separator", "header_only",
    "compensating_columns", "trailing_comma",
])
def test_other_files_go_to_the_line_parser(tmp_path, mutation):
    rng = np.random.default_rng(6)
    path = tmp_path / "map.csv"
    write_spectrum_csv(path, random_map(rng, 3, 4))
    path.write_bytes(mutate(path.read_text(encoding="utf-8"), mutation, rng).encode())
    assert _read_plain(path) is None
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
    # the suffix does not select a decompressor
    rng = np.random.default_rng(7)
    spectrum = random_map(rng, 2, 3)
    path = tmp_path / "map.csv.gz"
    write_spectrum_csv(path, spectrum)
    assert outcome(read_spectrum_csv, path) == outcome(_read_spectrum_lines, path)
    assert _read_plain(path) is not None


# Tokens the writer spells outside its array range, or that other
# writers might: extremes, subnormals, both sides of 1e-06 and 1e+16,
# the tie 2^53 + 1, 18 to 20 digits, and other spellings float() takes.
SPELLINGS = (
    "1e+300", "-1.0000000000000001e-310", "5e-324", "-0", "0", "9.9999999999999995e-07",
    "1e-06", "1.0000000000000002e-06", "9999999999999998", "1e+16", "10000000000000002",
    "9007199254740993", "-9007199254740993", "0.123456789012345678", "1234567890123456789",
    "12345678901234567890", "0.10000000000000000555", "1.00000000000000000000", ".5", "5.",
    "-.5", "+0.5", "1E-05", "1.5E+01", "+1.5e+01", "1e5", "0.0001", "1234567.5", "12345678.5",
)


def written(path, spectrum) -> str:
    write_spectrum_csv(path, spectrum)
    return path.read_text(encoding="ascii")


def spell(text, rng) -> str:
    """text with every s21 token replaced by one of SPELLINGS."""
    header, *rows = text.split("\n")[:-1]
    tokens = iter(rng.choice(SPELLINGS, 2 * len(rows)).tolist())
    rows = [",".join(row.split(",")[:2] + [next(tokens), next(tokens)]) for row in rows]
    return "".join(row + "\n" for row in [header, *rows])


@pytest.mark.parametrize("chunk", [1, 7, 64, 1 << 18])
def test_other_spellings_and_small_reads_take_the_array_route(tmp_path, monkeypatch, chunk):
    # reads of a few bytes split rows, tokens and the carried tail
    monkeypatch.setattr(dataio, "_READ_CHUNK", chunk)
    rng = np.random.default_rng(11)
    path = tmp_path / "map.csv"
    for n_fields, n_freqs in ((1, 1), (1, 9), (4, 1), (5, 7)):
        text = written(path, random_map(rng, n_fields, n_freqs))
        for body in (text, spell(text, rng)):
            path.write_text(body, encoding="ascii")
            assert _read_plain(path) is not None
            assert outcome(read_spectrum_csv, path) == outcome(_read_spectrum_lines, path)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), n_fields=st.integers(1, 4), n_freqs=st.integers(1, 4),
       mutation=st.sampled_from(MUTATIONS), token=st.sampled_from(TOKENS + SPELLINGS),
       column=st.integers(0, 3), chunk=st.sampled_from([1, 5, 33, 200]))
def test_small_reads_agree_with_line_parser(tmp_path_factory, seed, n_fields, n_freqs,
                                            mutation, token, column, chunk):
    rng = np.random.default_rng(seed)
    path = tmp_path_factory.mktemp("map") / "map.csv"
    text = written(path, random_map(rng, n_fields, n_freqs))
    path.write_bytes(mutate(text, mutation, rng, token, column).encode("utf-8"))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dataio, "_READ_CHUNK", chunk)
        assert outcome(read_spectrum_csv, path) == outcome(_read_spectrum_lines, path)


def test_h_oe_text_may_vary_within_a_field(tmp_path):
    # "700" and "700.0" are one field: more conversions, same route
    rng = np.random.default_rng(12)
    spectrum = random_map(rng, 3, 4)
    path = tmp_path / "map.csv"
    text = written(path, SpectrumMap(np.array([700.0, 701.0, 702.0]), spectrum.freqs,
                                     spectrum.values))
    header, *rows = text.split("\n")[:-1]
    rows = [row.replace("700,", "700.0,", 1) if k % 2 else row for k, row in enumerate(rows)]
    path.write_text("".join(row + "\n" for row in [header, *rows]), encoding="ascii")
    assert "700.0," in path.read_text(encoding="ascii")
    assert _read_plain(path) is not None
    assert outcome(read_spectrum_csv, path) == outcome(_read_spectrum_lines, path)


def test_benchmark_inputs_take_the_array_route(tmp_path):
    perfbench = Path(__file__).resolve().parent.parent / "perfbench"
    sys.path.insert(0, str(perfbench))
    try:
        gen_inputs = importlib.import_module("gen_inputs")
    finally:
        sys.path.remove(str(perfbench))
        for name in ("gen_inputs", "run"):
            sys.modules.pop(name, None)
    for workload in ("fit_map", "branches_thickness"):
        out = tmp_path / workload
        out.mkdir()
        path = out / gen_inputs.write_inputs(workload, 7, out)["files"]["data"]
        spectrum = _read_plain(path)
        assert spectrum is not None
        assert outcome(lambda _: spectrum, path) == outcome(_read_spectrum_lines, path)


def moved_candidates(monkeypatch, off) -> list[int]:
    """Make _quotients return each nonzero candidate one ulp towards off,
    its f and k untouched; the list returned counts the calls."""
    def quotients(m, exponent):
        calls.append(m.size)
        f, k, c = exact(m, exponent)
        return f, k, np.where(m == 0, c, np.nextafter(c, off))

    calls, exact = [], dataio._quotients
    monkeypatch.setattr(dataio, "_quotients", quotients)
    return calls


def test_a_candidate_one_ulp_off_is_never_kept(tmp_path, monkeypatch):
    # the residual certificate, not the accuracy of the quotient, makes
    # values exact; a zero significand is an exact zero either way
    calls = moved_candidates(monkeypatch, np.inf)
    rng = np.random.default_rng(13)
    path = tmp_path / "map.csv"
    text = written(path, random_map(rng, 4, 6))
    for body in (text, spell(text, rng)):
        path.write_text(body, encoding="ascii")
        assert _read_plain(path) is not None
        assert outcome(read_spectrum_csv, path) == outcome(_read_spectrum_lines, path)
    assert calls == [2 * 24] * 4  # two reads of each file, each moving both parts of every row


def midpoint_tokens(rng, values) -> list[str]:
    """s21 tokens of 17 and 18 digits on either side of the midpoint
    between each double v of values in [1e-5, 1) and the next double up,
    each in fixed and in scientific notation, with a random sign: the
    tokens whose correct rounding is hardest to certify."""
    tokens = []
    for v in values.tolist():
        mid = (Fraction(v) + Fraction(np.nextafter(v, 2.0).item())) / 2
        e = math.floor(math.log10(mid))
        e += (Fraction(10) ** (e + 1) <= mid) - (Fraction(10) ** e > mid)  # 10^e <= mid < 10^(e+1)
        for digits in (17, 18):
            places = digits - 1 - e  # decimal places of a digits-digit token
            for d in (math.floor(mid * 10**places), math.ceil(mid * 10**places)):
                text = str(d)
                if len(text) != digits:  # rounded up to a power of ten
                    continue
                sign = "-" if rng.random() < 0.5 else ""
                tokens.append(f"{sign}0.{text.rjust(places, '0')}")
                tokens.append(f"{sign}{text[0]}.{text[1:]}e{e:+03d}")
    return tokens


def read_midpoint_tokens(path, monkeypatch, rng, tokens, n_fields, off) -> None:
    """Read a map whose s21 tokens are tokens, with each candidate moved
    one ulp towards off unless off is None: every exact candidate must be
    kept, and every moved one sent to float()."""
    calls = [] if off is None else moved_candidates(monkeypatch, off)
    floats = dataio._floats
    converted = []
    monkeypatch.setattr(dataio, "_floats", lambda buf, start, end: converted.append(start.size)
                        or floats(buf, start, end))
    n_freqs = len(tokens) // (2 * n_fields)  # two tokens a row
    header, *lines = written(path, random_map(rng, n_fields, n_freqs)).split("\n")[:-1]
    pairs = iter(tokens)
    lines = [",".join(line.split(",")[:2] + [next(pairs), next(pairs)]) for line in lines]
    path.write_text("".join(line + "\n" for line in [header, *lines]), encoding="ascii")
    assert _read_plain(path) is not None
    assert sum(calls) == (0 if off is None else len(tokens))
    # float() read each field's first h_oe and the first field's omega texts
    assert sum(converted) - n_fields - n_freqs == (0 if off is None else len(tokens))
    assert outcome(read_spectrum_csv, path) == outcome(_read_spectrum_lines, path)


@pytest.mark.parametrize("off", [None, math.inf, -math.inf], ids=["exact", "ulp_up", "ulp_down"])
def test_tokens_nearest_a_midpoint_read_as_float_reads_them(tmp_path, monkeypatch, off):
    # a candidate one ulp off lies just over half a gap from such a token:
    # the residual certificate must send every one to float(), and keep
    # every exact candidate, whose token lies just under half a gap away
    rng = np.random.default_rng(14)
    tokens = midpoint_tokens(rng, 10.0 ** rng.uniform(-5.0, 0.0, 300))
    assert len(tokens) == 2400
    read_midpoint_tokens(tmp_path / "map.csv", monkeypatch, rng, tokens, 10, off)


@pytest.mark.parametrize("off", [None, math.inf, -math.inf], ids=["exact", "ulp_up", "ulp_down"])
def test_tokens_nearest_a_midpoint_at_a_binade_edge_read_as_float_reads_them(tmp_path, monkeypatch,
                                                                             off):
    # v is the double just below 2^j, so the gap below the double after v
    # is half the gap above it: a certificate that measured the gap above
    # a candidate 2^j would keep it for tokens that float() reads as v
    rng = np.random.default_rng(15)
    values = np.nextafter(2.0 ** np.arange(-16, 1), 0.0)  # 2^-16 > 1e-5
    tokens = midpoint_tokens(rng, values)
    assert len(tokens) == 8 * values.size
    read_midpoint_tokens(tmp_path / "map.csv", monkeypatch, rng, tokens, 2, off)


@pytest.mark.parametrize("rows, line, error", [
    # a 2 x 2 grid, then a last line cut short and not terminated: the
    # grid before it must not be read as the map
    (["1000,27,0.1,0.2", "1000,28,0.3,0.4", "1100,27,0.5,0.6", "1100,28,0.7,0.8", "1200,27"],
     6, "line 6: expected 4 columns, got 2"),
    # a 25-byte omega and its own last 24 bytes: a token longer than the
    # 24-byte text key must match no other token
    (["1000,12.0000000000000000000001,0.1,0.2", "1000,13,0.3,0.4",
      "1100,2.0000000000000000000001,0.5,0.6", "1100,13,0.7,0.8\n"],
     5, "line 5: incomplete grid: missing row for h_oe=1000, omega=2"),
], ids=["unterminated_last_line", "long_token_key"])
def test_malformed_files_are_refused_like_the_line_parser_refuses_them(tmp_path, rows, line,
                                                                        error):
    path = tmp_path / "map.csv"
    path.write_text("\n".join([SPECTRUM_HEADER, *rows]), encoding="ascii")
    assert outcome(read_spectrum_csv, path) == outcome(_read_spectrum_lines, path) == (
        "error", error, line)
