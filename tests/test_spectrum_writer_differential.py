"""The array '%.17g' kernel and the spectrum writer against Python's text.

_write_17g must spell every float64 exactly as '%.17g' % v does, and
write_spectrum_csv must write the same bytes as the per-field loop it
replaced, kept here as reference_write_spectrum_csv.  Hypothesis runs
derandomized, so failures reproduce.
"""

import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavmag.core import PERMALLOY, YIG, ModeSpec
from cavmag.dataio import (
    _DIGIT_TABLE,
    _POW10,
    _WRITE_BLOCK,
    SPECTRUM_HEADER,
    _write_17g,
    format_float,
    write_spectrum_csv,
)
from cavmag.sweep import SpectrumMap, SystemTemplate, TemplateMagnon, compute_map

SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)

SPECIALS = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -2.225073858507201e-308,
    1e-300, 1.7976931348623157e308, -1.7976931348623157e308,
    math.nan, math.inf, -math.inf, 1.0, -1.0, 0.5, 100.0, 1e15 + 0.5, 1e16 - 2.0,
]


def reference_write_spectrum_csv(path, spectrum):
    """The per-field '%.17g' template loop the array writer replaced."""
    row_tails = [f",{format_float(w)},%.17g,%.17g" for w in spectrum.freqs]
    parts = np.stack((spectrum.values.real, spectrum.values.imag), axis=-1)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(SPECTRUM_HEADER + "\n")
        for h, row in zip(spectrum.fields, parts.reshape(spectrum.fields.size, -1)):
            head = format_float(h)
            template = head + ("\n" + head).join(row_tails) + "\n"
            handle.write(template % tuple(row.tolist()))


def assert_spells_17g(values):
    values = np.asarray(values, dtype=np.float64)
    slots = np.zeros((values.size, 4), dtype="<u8")
    _write_17g(values, slots, ord("\n"))
    text = [row.tobytes().replace(b"\0", b"").decode("ascii") for row in slots]
    assert all(t.endswith("\n") for t in text)
    got = [t[:-1] for t in text]
    assert got == ["%.17g" % v for v in values.tolist()]


def bits_to_floats(bits):
    return np.array(bits, dtype=np.uint64).view(np.float64)


@SETTINGS
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
def test_random_bit_patterns(bits):
    floats = bits_to_floats(bits)
    assert_spells_17g(floats)
    assert_spells_17g(np.abs(floats))


@SETTINGS
@given(st.lists(st.tuples(st.floats(-8.0, 18.0), st.booleans()), min_size=1, max_size=64))
def test_log_uniform_magnitudes(draws):
    assert_spells_17g([(-1.0 if negative else 1.0) * 10.0**u for u, negative in draws])


def dyadic_tie(e, position):
    """A double in [10^e, 10^(e+1)) whose product with 10^(16-e) ends in .5."""
    k = 16 - e
    lo = math.ceil(Fraction(10) ** e * 2 ** (k + 1))
    hi = min(math.floor(Fraction(10) ** (e + 1) * 2 ** (k + 1)), 2**53)
    if lo >= hi - 1:
        return None
    odd = (lo + int(position * (hi - 1 - lo))) | 1
    value = math.ldexp(odd, -(k + 1))
    assert (Fraction(value) * 10**k).denominator == 2  # an exact tie
    return value


@SETTINGS
@given(st.lists(st.tuples(st.integers(-6, 15), st.floats(0.0, 1.0), st.booleans()),
                min_size=1, max_size=64))
def test_dyadic_ties_round_half_to_even(draws):
    ties = [dyadic_tie(e, position) for e, position, _ in draws]
    values = [(-t if negative else t) for t, (_, _, negative) in zip(ties, draws) if t]
    if values:
        assert_spells_17g(values)


def test_bulk_random_values():
    rng = np.random.default_rng(17)
    bits = bits_to_floats(rng.integers(0, 2**64, 50_000, dtype=np.uint64))
    magnitudes = 10.0 ** rng.uniform(-8.0, 18.0, 50_000)
    assert_spells_17g(np.concatenate([bits, magnitudes, -magnitudes]))


def test_dyadic_tie_examples():
    # (1 + 2^-17)·10^16 = 10000076293945312.5: the even neighbour wins
    assert_spells_17g([1 + 2**-17, -(1 + 2**-17), 1 + 3 * 2**-17, 0.5 + 2**-18])
    assert "%.17g" % (1 + 2**-17) == "1.0000076293945312"


def test_neighbours_of_powers_of_ten():
    powers = np.array([float(f"1e{k}") for k in range(-9, 20)])
    steps = [powers]
    for _ in range(3):
        steps.append(np.nextafter(steps[-1], 0.0))
    upward = [powers]
    for _ in range(3):
        upward.append(np.nextafter(upward[-1], np.inf))
    values = np.concatenate(steps + upward[1:])
    assert_spells_17g(np.concatenate([values, -values]))


def test_specials():
    subnormals = bits_to_floats(np.arange(1, 2**52, 2**45, dtype=np.uint64))
    assert_spells_17g(SPECIALS + subnormals.tolist())


def with_trailing_zeros(e, z):
    """A double whose 17 '%.17g' digits D, at decimal exponent e, end in
    exactly z zeros, or None if no candidate D has one.  D = d·10^16 +
    d'·10^z, with zeros between, is tried first, then random digits."""
    width = 17 - z  # digits of D before its trailing zeros
    rng = random.Random(17 * e + z)
    if width == 1:
        heads = list(range(1, 10))
    else:
        heads = [d * 10 ** (width - 1) + last for d in range(1, 10) for last in range(1, 10)]
        heads += [rng.randrange(10 ** (width - 1), 10**width) for _ in range(300)]
    for head in heads:
        if head % 10 == 0:
            continue
        digits = head * 10**z
        value = float(Fraction(digits) * Fraction(10) ** (e - 16))  # the nearest double
        if round(Fraction(value) * Fraction(10) ** (16 - e)) == digits:
            return value
    return None


def test_every_exponent_and_trailing_zero_count():
    values, missing = [0.0, -0.0], []
    for e in range(-6, 16):
        for z in range(17):
            value = with_trailing_zeros(e, z)
            if value is None:
                missing.append((e, z))
            else:
                values += [value, -value]
    # d·10^-5 for d = 1..9: no double's 17 digits end in 16 zeros there.
    assert missing == [(-5, 16)]
    assert_spells_17g(values)


def test_powers_of_ten_are_exact():
    assert [Fraction(p) for p in _POW10] == [Fraction(10) ** k for k in range(23)]


def test_digit_table_spells_every_group_and_its_kept_digits():
    assert _DIGIT_TABLE.shape == (10**4,)
    for c, entry in enumerate(_DIGIT_TABLE.tolist()):
        text = b"%04d" % c
        last = len(text.rstrip(b"0"))  # bytes up to the last nonzero digit; 0 for c = 0
        assert entry.to_bytes(8, "little") == text + b"\xff" * last + b"\0" * (4 - last), c


def random_values(rng, shape):
    values = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    values *= 10.0 ** rng.uniform(-9.0, 18.0, size=shape)
    for part in (values.real, values.imag):
        mask = rng.random(shape) < 0.1
        part[mask] = rng.choice(SPECIALS, mask.sum())
    return values


@pytest.mark.parametrize("n_fields", [1, _WRITE_BLOCK - 1, _WRITE_BLOCK, _WRITE_BLOCK + 1,
                                      2 * _WRITE_BLOCK + 1])
def test_writer_bytes_match_reference(tmp_path, n_fields):
    rng = np.random.default_rng(n_fields)
    fields = np.cumsum(rng.uniform(0.5, 400.0, n_fields)) * 10.0 ** rng.uniform(-8, 17)
    freqs = np.array([1e-7, 3e-5, 0.1, 27.2, 29.199999999999999, 1e15, 1e17])
    spectrum = SpectrumMap(fields, freqs, random_values(rng, (n_fields, freqs.size)))
    write_spectrum_csv(tmp_path / "new.csv", spectrum)
    reference_write_spectrum_csv(tmp_path / "ref.csv", spectrum)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


@pytest.mark.parametrize("n_fields", [1, _WRITE_BLOCK + 1])
def test_writer_bytes_match_reference_for_every_row_padding(tmp_path, n_fields):
    rng = np.random.default_rng(n_fields)
    fields = 100.0 + np.arange(n_fields)  # 3 characters each
    paddings = set()
    for width in range(1, 9):
        freqs = 10.0 ** (width - 1) + np.arange(5)  # width characters each
        paddings.add((3 + width + 2) % 8)
        values = random_values(rng, (n_fields, freqs.size))
        values[0, 0] = complex(5e-324, 1e300)
        values[-1, -1] = complex(-1e300, -2.2250738585072014e-308)  # 24 characters
        spectrum = SpectrumMap(fields, freqs, values)
        write_spectrum_csv(tmp_path / "new.csv", spectrum)
        reference_write_spectrum_csv(tmp_path / "ref.csv", spectrum)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    assert paddings == set(range(8))


def test_writer_memory_does_not_grow_with_the_field_count(tmp_path):
    rng = np.random.default_rng(5)
    freqs = np.linspace(27.2, 31.2, 401)
    peaks = []
    for n_fields in (2 * _WRITE_BLOCK, 16 * _WRITE_BLOCK):
        values = rng.normal(size=(n_fields, freqs.size)) + 1j * rng.normal(size=(n_fields, freqs.size))
        spectrum = SpectrumMap(np.linspace(200.0, 1400.0, n_fields), freqs, values)
        tracemalloc.start()
        try:
            write_spectrum_csv(tmp_path / "map.csv", spectrum)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.05 * peaks[0]


def test_writer_bytes_match_reference_on_a_device_map(tmp_path):
    template = SystemTemplate(
        resonator=ModeSpec("cpw", 29.2, 0.002, 0.005),
        magnons=(TemplateMagnon("py", 0.003, 0.002, PERMALLOY),
                 TemplateMagnon("yig", 0.001, 0.001, YIG)),
        couplings={("py", "cpw"): 0.2, ("cpw", "yig"): 0.21},
    )
    spectrum = compute_map(template, np.linspace(200.0, 1400.0, 70), np.linspace(27.2, 31.2, 41))
    write_spectrum_csv(tmp_path / "new.csv", spectrum)
    reference_write_spectrum_csv(tmp_path / "ref.csv", spectrum)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
