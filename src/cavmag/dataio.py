"""File formats: spectrum CSV, branch CSV, thickness CSV, PGM heatmaps.

All floats are written as '%.17g' text, so a write - read - write cycle
is byte-identical and values survive exactly.  Files store model units
only.  The spectrum writer computes the '%.17g' digits of its s21 values
exactly with array arithmetic (_format_17g), so its bytes are those of
'%.17g' % v for every value.  The spectrum reader inverts that kernel:
plain files are parsed with array arithmetic whose every value is
proven equal to float() of its token (_read_plain), all other files line
by line (_read_spectrum_lines), with the same values and errors.
"""

from __future__ import annotations

import math

import numpy as np

from .core import format_float
from .errors import DataFormatError
from .sweep import BranchCurves, SpectrumMap

SPECTRUM_HEADER = "h_oe,omega,re_s21,im_s21"
BRANCH_HEADER = "h_oe,branch_index,re_eig,im_eig"
THICKNESS_HEADER = "t_um,g1,g2,gap_p1,gap_p2"


# ── Exact '%.17g' text of float64 arrays ─────────────────────────────
#
# '%.17g' % v prints the 17-digit integer D nearest to |v|·10^(16-e),
# ties to even, where e = floor(log10|v|): fixed notation for
# -4 <= e < 17, scientific otherwise, trailing fraction zeros and a bare
# point dropped.  CPython finds D with bignum arithmetic.  For
# 1e-6 < |v| < 1e16, 16 - e lies in 1..22 and 10^(16-e) is an exact
# double, so Dekker's error-free product gives |v|·10^(16-e) exactly as
# hi + lo.  The product lies in [1e16, 1e17), where doubles are even
# integers, so D = hi + rint(lo) is rounded half to even like CPython's.

_POW10 = np.cumprod(np.r_[1.0, np.full(22, 10.0)])  # 10^0 .. 10^22, exact
_INT10 = 10 ** np.arange(18, dtype=np.int64)
_VELTKAMP = 2.0**27 + 1.0


def _split(a):
    """a = hi + lo with hi holding the upper 26 bits of a's significand."""
    t = a * _VELTKAMP
    hi = t - (t - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _split(_POW10)


def _scaled(a, k):
    """a·10^k as hi + lo exactly: Dekker's product with the exact 10^k."""
    hi = a * _POW10[k]
    a_hi, a_lo = _split(a)
    p_hi, p_lo = _POW10_HI[k], _POW10_LO[k]
    lo = ((a_hi * p_hi - hi) + a_hi * p_lo + a_lo * p_hi) + a_lo * p_lo
    return hi, lo


def _decimal_17(a):
    """(e, D) with |a| rounded to 17 digits D·10^(e-16), 1e-6 < a < 1e16.

    log10 gives e to within one; the exact product decides the rest.
    """
    e = np.clip(np.floor(np.log10(a)).astype(np.int64), -6, 15)
    hi, lo = _scaled(a, 16 - e)
    up = (hi > 1e17) | ((hi == 1e17) & (lo >= 0.0))
    down = (hi < 1e16) | ((hi == 1e16) & (lo < 0.0))
    moved = np.flatnonzero(up | down)
    if moved.size:
        e[moved] += up[moved].astype(np.int64) - down[moved]
        hi[moved], lo[moved] = _scaled(a[moved], 16 - e[moved])
    # |a| < 10^(e+1) never rounds up to 10^17 here: no double in range
    # lies within 5e-18 relative of a power of ten below it.
    return e, hi.astype(np.int64) + np.rint(lo).astype(np.int64)


# The text of every 4-digit group 0000..9999 as one little-endian word,
# in four spellings: all digits (offset 0 in _GROUP_TEXT), leading zeros
# as NUL, leading zeros as NUL but the units digit kept, and trailing
# zeros as NUL.
_LEAD, _UNITS, _TRAIL = 10000, 20000, 30000
_group = np.arange(10000, dtype=np.int16)[:, None]  # int16 keeps import light
_place = np.array([1000, 100, 10, 1], dtype=np.int16)
_ascii = (_group // _place % 10 + ord("0")).astype(np.uint8)
_leading = _group < _place
_trailing = _group % (10 * _place) == 0
_GROUP_TEXT = np.concatenate([
    np.where(blank, 0, _ascii).view("<u4")[:, 0]
    for blank in (False, _leading, _leading & (np.arange(4) < 3), _trailing)
])
del _group, _place, _ascii, _leading, _trailing

# Scientific notation in range: e = -6 and e = -5.
_EXPONENT_TEXT = np.frombuffer(b"e-06e-05", dtype="<u4")

# One value's text in _FORMAT_WIDTH bytes: sign (byte 0), 16 integer
# digits (words 1-4), point (byte 20), 20 fraction digits (words 6-10),
# exponent (word 11).  Unused bytes hold NUL.
_FORMAT_WIDTH = 48


def _quads(n, count):
    """The count 4-digit groups of n, most significant first."""
    quads = []
    for _ in range(count):
        top = n // 10**4
        quads.append(n - top * 10**4)
        n = top
    return quads[::-1]


def _format_17g(x) -> np.ndarray:
    """'%.17g' % v of each value of x, as an (x.size, 48) uint8 array
    whose non-NUL bytes, in order, spell the text.

    ±0 and 1e-6 < |v| < 1e16 take the array route; every other value
    (subnormal, tiny, huge, nan, inf) is formatted by Python.
    """
    x = np.asarray(x, dtype=np.float64).ravel()
    a = np.abs(x)
    inner = (a > 1e-6) & (a < 1e16)
    e, digits = _decimal_17(np.where(inner, a, 1.0))
    digits[a == 0.0] = 0  # prints "0", or "-0" with the sign
    e_fixed = np.where(e < -4, 0, e)  # scientific lays out d.ddd like e = 0
    # The integer part, and the fraction left-aligned in 20 digits as
    # 8 + 12 digits so that each part stays below 2^63.
    unit = _INT10[np.minimum(16 - e_fixed, 17)]
    integer = digits // unit
    rest = digits - integer * unit
    shift = 4 + e_fixed  # the 20-digit fraction is rest·10^shift
    head_unit = _INT10[np.clip(12 - shift, 0, 12)]
    head = rest // head_unit
    tail = (rest - head * head_unit) * _INT10[np.minimum(shift, 12)]
    head *= _INT10[np.clip(shift - 12, 0, 7)]

    text = np.zeros((x.size, _FORMAT_WIDTH), dtype=np.uint8)
    words = text.view("<u4")
    blank = np.ones(x.size, dtype=bool)  # no digit yet: leading zeros
    for k, quad in enumerate(_quads(integer, 4)):
        words[:, 1 + k] = _GROUP_TEXT[quad + blank * (_UNITS if k == 3 else _LEAD)]
        blank &= quad == 0
    blank[:] = True  # no digit after: trailing zeros
    for k, quad in reversed(list(enumerate(_quads(head, 2) + _quads(tail, 3)))):
        words[:, 6 + k] = _GROUP_TEXT[quad + blank * _TRAIL]
        blank &= quad == 0
    text[:, 20] = np.where(blank, 0, ord("."))
    scientific = np.flatnonzero(e < -4)
    words[scientific, 11] = _EXPONENT_TEXT[e[scientific] + 6]
    text[:, 0] = np.where(np.signbit(x), ord("-"), 0)
    other = np.flatnonzero(~inner & (a != 0.0))
    if other.size:
        text[other] = np.array(
            [("%.17g" % v).encode("ascii") for v in x[other].tolist()],
            dtype=f"S{_FORMAT_WIDTH}",
        ).view(np.uint8).reshape(-1, _FORMAT_WIDTH)
    return text


def _text_columns(values) -> np.ndarray:
    """format_float of each value as the rows of a NUL-padded uint8 array."""
    text = np.array([format_float(v).encode("ascii") for v in values.tolist()])
    return text.view(np.uint8).reshape(len(values), -1)


# Fields per block of the spectrum writer, so its buffers stay
# independent of the grid size.
_WRITE_BLOCK = 32


def write_spectrum_csv(path, spectrum: SpectrumMap) -> None:
    """Spectrum map as CSV, rows ordered by (h_oe, omega) ascending.

    Each field and frequency is formatted once, every s21 part by
    _format_17g.  Rows are built _WRITE_BLOCK fields at a time as
    fixed-width bytes padded with NUL, which is dropped before each write.
    """
    heads = _text_columns(spectrum.fields)
    freqs = _text_columns(spectrum.freqs)
    # Columns: field, comma, frequency, comma, real part, comma, imaginary part, newline.
    widths = [heads.shape[1], 1, freqs.shape[1], 1, _FORMAT_WIDTH, 1, _FORMAT_WIDTH, 1]
    ends = np.cumsum(widths)
    starts = ends - widths
    head, freq, real, imag = (slice(a, b) for a, b in zip(starts[::2], ends[::2]))
    with open(path, "wb") as handle:
        handle.write((SPECTRUM_HEADER + "\n").encode("ascii"))
        for start in range(0, spectrum.fields.size, _WRITE_BLOCK):
            values = spectrum.values[start:start + _WRITE_BLOCK]
            rows = np.zeros(values.shape + (ends[-1],), dtype=np.uint8)
            rows[..., head] = heads[start:start + _WRITE_BLOCK, None]
            rows[..., freq] = freqs
            rows[..., real] = _format_17g(values.real).reshape(values.shape + (-1,))
            rows[..., imag] = _format_17g(values.imag).reshape(values.shape + (-1,))
            rows[..., ends[1::2] - 1] = np.frombuffer(b",,,\n", dtype=np.uint8)
            handle.write(rows.tobytes().translate(None, b"\0"))


# ── Exact array reader ───────────────────────────────────────────────
#
# A plain file is the exact header line followed by bytes from
# _PLAIN_BYTES only; the array reader parses nothing else, so '\n' is
# its only line break and every token is ASCII.  It reads _READ_CHUNK
# bytes at a time and parses the complete lines of each read as arrays.
#
# An h_oe token whose text equals the previous row's, or an omega token
# whose text equals the one at the same place in the first field block,
# has that token's value; only the others go through float().  An s21
# token [sign] digits [. digits] [e sign digit digit] with at most 7
# integer and 24 fraction digits is read with 8-byte SWAR arithmetic
# (Lemire, arXiv:2101.11408) into its integer significand M < 10^18, so
# that its value is M·10^q.  A double-double quotient by the exact
# 10^-q gives a candidate double c, kept only where _decimal_17(|c|)
# spells the token's own digits: '%.17g' of a double reads back as that
# double, so c is then float(token).  Every other token goes through
# float().

_HEADER_LINE = (SPECTRUM_HEADER + "\n").encode("ascii")
_PLAIN_BYTES = b"0123456789+-.eE,\n"
_READ_CHUNK = 1 << 18  # bytes per read
_PAD = 32  # NUL bytes around each read, so that every window stays inside the buffer
_ROW_SEPARATORS = np.frombuffer(b",,,\n", dtype=np.uint8)

_U64 = np.uint64
_ONES = _U64(0x0101010101010101)
_ZEROS = _ONES * _U64(ord("0"))  # the text "00000000" as a word
# Word masks keeping the last k characters (the top k bytes), k = 0..8,
# and the '0' characters that fill the others.
_KEEP = np.array([(1 << 64) - (1 << 8 * (8 - k)) if k else 0 for k in range(9)], dtype=np.uint64)
_FILL = _ZEROS & ~_KEEP
_TEXT_OFFSETS = np.array([16, 8, 0])  # characters after each word of a 24-byte text window
_LIMIT17 = 10 ** (17 - np.arange(18, dtype=np.int64))  # m·10^k < 10^17 iff m < _LIMIT17[k]


def _windows(buf, size, end) -> np.ndarray:
    """The size bytes before each offset of end, as rows of size // 8 words."""
    view = np.ndarray((len(buf) - size + 1,), dtype=f"V{size}", buffer=buf, strides=(1,))
    return view[end - size].view("<u8").reshape(-1, size // 8)


def _non_digits(word):
    """0 where all 8 characters are digits; else the high bit of the
    first non-digit byte is set (and maybe some above it).
    """
    return ((word + _ONES * _U64(0x46)) | (word - _ZEROS)) & (_ONES * _U64(0x80))


def _eight_digits(word):
    """The value of 8 digit characters, the first one most significant."""
    word = word - _ZEROS
    word = word * _U64(10) + (word >> _U64(8))  # 2-digit groups
    pairs = _U64(0x000000FF000000FF)
    return ((word & pairs) * _U64(100 + (1000000 << 32))
            + ((word >> _U64(16)) & pairs) * _U64(1 + (10000 << 32))) >> _U64(32)


def _floats(buf, start, end) -> np.ndarray:
    """float() of each token; a token it rejects raises ValueError."""
    return np.array([float(buf[a:b]) for a, b in zip(start.tolist(), end.tolist())], dtype=float)


def _text_keys(buf, start, end):
    """Each token's last 24 bytes, NUL before its start, as (n, 3) words,
    and whether it is longer; a longer token's key matches no other.
    """
    length = end - start
    keys = np.zeros((length.size, 3), dtype=np.uint64)
    words = min(3, -(-int(length.max(initial=0)) // 8))  # from the end; the others stay 0
    if words:
        keep = np.minimum(np.maximum(length[:, None] - _TEXT_OFFSETS[3 - words:], 0), 8)
        keys[:, 3 - words:] = _windows(buf, 8 * words, end) & _KEEP[keep]
    long = length > 24
    keys[long] = ~_U64(0)  # no byte of a plain token is 0xff
    return keys, long


def _same(a, b) -> np.ndarray:
    return (a[:, 0] == b[:, 0]) & (a[:, 1] == b[:, 1]) & (a[:, 2] == b[:, 2])


def _integer_digits(buf, start):
    """(neg, point, n_int, has_point, whole) of each token: its sign, and
    the n_int (at most 7) digits after it, of value whole, which end at
    offset point, a '.' if has_point.
    """
    head = _windows(buf, 8, start + 8)[:, 0]  # the first 8 characters
    neg = (head & _U64(0xFF)) == ord("-")
    signed = (head & _U64(0xF9)) == 0x29  # '+' or '-', the only plain bytes so masked
    head = np.where(signed, head >> _U64(8), head)
    bad = _non_digits(head) | _U64(0x80 << 56)
    bad &= _U64(0) - bad  # its lowest set bit: the first non-digit
    bits = (((bad >> _U64(7)) * _U64(0x0001020304050607)) >> _U64(56)) << _U64(3)
    has_point = ((head >> bits) & _U64(0xFF)) == ord(".")
    whole = _eight_digits((head << (_U64(64) - bits)) | (_ZEROS >> bits))
    n_int = (bits >> _U64(3)).view(np.int64)
    return neg, start + signed + n_int, n_int, has_point, whole


def _exponents(last):
    """(has_e, power) of tokens whose last 8 characters are last: 'e' or
    'E', a sign and two digits, or no exponent and power 0.
    """
    has_e = ((last >> _U64(32)) & _U64(0xF0F0F9DF)) == 0x30302945
    power = ((((last >> _U64(48)) & _U64(0x0F0F)) * _U64(2561)) >> _U64(8)) & _U64(0xFF)
    sign = 0x2C - ((last >> _U64(40)) & _U64(0xFF)).view(np.int64)  # '+' 1, '-' -1
    return has_e, power.view(np.int64) * sign * has_e


def _fraction_digits(tail, has_e, n_frac):
    """(value, ok): the n_frac digits that end each token's 32-byte tail
    window, 4 bytes earlier where has_e; ok where they are digits and
    value < 10^18.
    """
    shift = has_e.astype(np.uint8) << 5  # bits a word moves
    back = np.uint8(64) - shift
    value, ok = _U64(0), True
    for j in reversed(range(min(3, -(-int(n_frac.max(initial=0)) // 8)))):
        word = (tail[:, 3 - j] << shift) | (tail[:, 2 - j] >> back)
        kept = np.minimum(np.maximum(n_frac - 8 * j, 0), 8)
        word = (word & _KEEP[kept]) | _FILL[kept]
        ok = ok & (_non_digits(word) == 0)
        digits = _eight_digits(word)
        if j == 2:
            ok &= digits < 100
        value = value * _U64(10**8) + digits
    return value, ok


def _significands(buf, start, end):
    """(neg, m, exponent, ok): each s21 token is (-1)^neg · m · 10^exponent
    where ok, with m < 10^18 and |exponent| <= 22; elsewhere m is 0.
    """
    neg, point, n_int, has_point, whole = _integer_digits(buf, start)
    tail = _windows(buf, 32, end)
    has_e, power = _exponents(tail[:, 3])
    stop = end - 4 * has_e  # the end of the digits and point
    n_frac = stop - point - has_point
    ok = (has_point | (point == stop)) & (n_int + n_frac >= 1) & (n_frac <= 24)
    frac, frac_ok = _fraction_digits(tail, has_e, n_frac)
    ok &= frac_ok & ((whole == 0) | (n_int + n_frac <= 18))  # m < 10^18
    exponent = power - n_frac
    ok &= np.abs(exponent) <= 22
    m = whole.view(np.int64) * _INT10[np.minimum(np.maximum(n_frac, 0), 17)] + frac.view(np.int64)
    return neg, np.where(ok, m, 0), exponent, ok


def _quotients(m, exponent) -> np.ndarray:
    """m·10^exponent to within an ulp: a double-double quotient (or
    product) with the exact power of ten; m < 10^18, |exponent| <= 22.
    """
    scale = np.minimum(np.abs(exponent), 22)
    hi = m.astype(np.float64)
    lo = (m - hi.astype(np.int64)).astype(np.float64)  # m = hi + lo exactly
    power10 = _POW10[scale]
    value = hi / power10
    p_hi, p_lo = _scaled(value, scale)
    value += (((hi - p_hi) - p_lo) + lo) / power10
    up = np.flatnonzero(exponent > 0)
    if up.size:
        p_hi, p_lo = _scaled(hi[up], scale[up])
        value[up] = p_hi + (p_lo + lo[up] * power10[up])
    return value


def _decimals(buf, start, end) -> np.ndarray:
    """float() of each s21 token, exact: SWAR where proven, float() elsewhere."""
    neg, m, exponent, ok = _significands(buf, start, end)
    value = _quotients(m, exponent)
    # Keep c where '%.17g' % c is the token's digits: D = m·10^k.
    size = np.abs(value)
    inner = (size > 1e-6) & (size < 1e16)
    e, digits = _decimal_17(np.where(inner, size, 1.0))
    k = exponent + 16 - e
    at = np.minimum(np.maximum(k, 0), 17)
    ok &= (m == 0) | (inner & (k >= 0) & (np.where(m < _LIMIT17[at], m, 0) * _INT10[at] == digits))
    value = np.where(neg, -value, value)
    slow = np.flatnonzero(~ok)
    if slow.size:
        value[slow] = _floats(buf, start[slow], end[slow])
    return value


class _PlainRows:
    """A plain file's rows, fed one read of complete lines at a time and
    checked as the line parser checks them: finite values, rows strictly
    ascending by (h_oe, omega), a complete grid.
    """

    def __init__(self):
        self.rows = 0
        self.h_key = None  # text key of the last row's h_oe
        self.last = None  # (h_oe, omega) of the last row
        self.freq_keys, self.freqs = [], []  # omega of the first field block
        self.n_freqs = 0  # the first block's rows, once a second field starts
        self.fields = []  # h_oe of each field block
        self.parts = []  # s21 parts, interleaved, of each read

    def feed(self, buf: bytes, cut: int) -> bool:
        """Take the lines of buf[_PAD:cut]; False if the line parser must decide."""
        b = np.frombuffer(buf, dtype=np.uint8, count=cut)
        seps = np.flatnonzero((b == ord(",")) | (b == ord("\n")))
        if seps.size % 4 or not (b[seps].reshape(-1, 4) == _ROW_SEPARATORS).all():
            return False
        end = seps.reshape(-1, 4)  # the comma or line break after each token
        n = end.shape[0]
        line = np.empty(n, dtype=np.int64)
        line[0] = _PAD
        line[1:] = end[:-1, 3] + 1

        # h_oe: a token whose text is the previous row's has its value.
        keys, long = _text_keys(buf, line, end[:, 0])
        new = np.empty(n, dtype=bool)
        new[1:] = ~_same(keys[1:], keys[:-1])
        new[0] = self.h_key is None or not _same(keys[:1], self.h_key[None])[0]
        new |= long
        at = np.flatnonzero(new)
        h = _floats(buf, line[at], end[at, 0])
        if not new[0]:  # the last read's h_oe goes on
            at, h = np.append(0, at), np.append(self.last[0], h)
        h = np.repeat(h, np.diff(np.append(at, n)))
        self.h_key = keys[-1].copy()  # not a view that keeps this read's keys

        # omega: the first field block is converted; a later token whose
        # text is the one at its place in that block has its value.
        start = end[:, 0] + 1
        keys, long = _text_keys(buf, start, end[:, 1])
        omega = np.empty(n)
        first = 0  # rows of this read in the first field block
        if not self.n_freqs:
            if not self.rows:
                self.fields.append(h[:1])
            in_first = h == self.fields[0][0]
            first = n if in_first.all() else int(np.argmin(in_first))
            omega[:first] = _floats(buf, start[:first], end[:first, 1])
            self.freq_keys.append(keys[:first])
            self.freqs.append(omega[:first])
            if first < n:
                self.freq_keys = np.concatenate(self.freq_keys)
                self.freqs = np.concatenate(self.freqs)
                self.n_freqs = self.freqs.size
        if first < n:
            place = (self.rows + np.arange(first, n)) % self.n_freqs
            omega[first:] = self.freqs[place]
            other = first + np.flatnonzero(~_same(keys[first:], self.freq_keys[place]) | long[first:])
            omega[other] = _floats(buf, start[other], end[other, 1])

        parts = _decimals(buf, (end[:, 1:3] + 1).reshape(-1), end[:, 2:].reshape(-1))
        if not (np.isfinite(h).all() and np.isfinite(omega).all() and np.isfinite(parts).all()):
            return False
        if self.rows:  # with the last read's last row
            h, omega = np.append(self.last[0], h), np.append(self.last[1], omega)
        same_h = h[1:] == h[:-1]
        if not ((h[1:] > h[:-1]) | (same_h & (omega[1:] > omega[:-1]))).all():
            return False
        if first < n:  # each later block: one h_oe, the first block's omega
            if not ((same_h[first - n:] | (place == 0)).all()
                    and (omega[first - n:] == self.freqs[place]).all()):
                return False
            self.fields.append(h[first - n:][place == 0])
        self.parts.append(parts)
        self.rows += n
        self.last = (h[-1], omega[-1])
        return True

    def spectrum(self) -> SpectrumMap | None:
        """The map, or None if the rows do not fill the grid."""
        if not self.n_freqs:  # a single field
            if not self.rows:
                return None
            self.freqs = np.concatenate(self.freqs)
            self.n_freqs = self.rows
        if self.rows % self.n_freqs:
            return None
        values = np.concatenate(self.parts).view(complex).reshape(-1, self.n_freqs)
        return SpectrumMap(np.concatenate(self.fields), self.freqs, values)


def _read_plain(path) -> SpectrumMap | None:
    """The map of a plain file, or None: not plain, or refused."""
    rows = _PlainRows()
    pad = bytes(_PAD)
    tail = b""
    with open(path, "rb") as handle:
        if handle.read(len(_HEADER_LINE)) != _HEADER_LINE:
            return None
        while chunk := handle.read(_READ_CHUNK):
            if chunk.translate(None, _PLAIN_BYTES):
                return None
            buf = b"".join((pad, tail, chunk, pad))
            del chunk  # one copy of the read while it is parsed
            cut = buf.rfind(b"\n") + 1
            tail = buf[max(cut, _PAD):-_PAD]
            if cut and not rows.feed(buf, cut):
                return None
    if tail and not rows.feed(b"".join((pad, tail, b"\n", pad)), _PAD + len(tail) + 1):
        return None
    return rows.spectrum()


def read_spectrum_csv(path) -> SpectrumMap:
    """Parse a spectrum CSV back into a map.

    The file must carry the exact header, one row per grid point,
    ordered ascending by (h_oe, omega), with every field sharing the
    same frequency list, and every value finite.  Violations, non-finite
    values included, raise DataFormatError carrying the offending line
    number (CLI exit 5).

    Plain files (see _PLAIN_BYTES) are parsed by the exact array reader
    (_read_plain) and checked with array operations.  Every other file,
    and every file the array reader refuses (a line without four tokens,
    a token float() rejects, a non-finite value, rows out of order or
    off the grid), goes to the line parser, _read_spectrum_lines.  The
    reader therefore takes exactly the files the line parser takes, with
    the same value bits, and every error message and line number comes
    from the line parser.
    """
    try:
        spectrum = _read_plain(path)
    except ValueError:  # a token float() rejects
        spectrum = None
    return _read_spectrum_lines(path) if spectrum is None else spectrum


def read_text(path) -> str:
    """A file's UTF-8 text.

    A byte sequence that is not UTF-8 raises DataFormatError naming the
    line, counted as str.splitlines counts, of its first byte.
    """
    with open(path, "rb") as handle:
        raw = handle.read()
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = len((raw[: exc.start].decode("utf-8") + "x").splitlines())
        raise DataFormatError(f"byte 0x{raw[exc.start]:02x} is not valid UTF-8",
                              line=line) from None


def _read_spectrum_lines(path) -> SpectrumMap:
    """Line-by-line spectrum CSV parser: the reference for read_spectrum_csv."""
    lines = read_text(path).splitlines()
    if not lines:
        raise DataFormatError("file is empty", line=1)
    if lines[0] != SPECTRUM_HEADER:
        raise DataFormatError(f"expected header {SPECTRUM_HEADER!r}, got {lines[0]!r}", line=1)
    rows: list[tuple[float, float, complex]] = []
    previous: tuple[float, float] | None = None
    for lineno, line in enumerate(lines[1:], start=2):
        if line == "":
            raise DataFormatError("blank line inside data", line=lineno)
        parts = line.split(",")
        if len(parts) != 4:
            raise DataFormatError(f"expected 4 columns, got {len(parts)}", line=lineno)
        try:
            h, w, re, im = map(float, parts)
        except ValueError:
            raise DataFormatError(f"unparseable number in {line!r}", line=lineno) from None
        if not (math.isfinite(h) and math.isfinite(w) and math.isfinite(re) and math.isfinite(im)):
            raise DataFormatError(f"non-finite value in {line!r}", line=lineno)
        key = (h, w)
        if previous is not None and key <= previous:
            raise DataFormatError(
                f"rows out of order: ({h!r}, {w!r}) after {previous!r}", line=lineno
            )
        previous = key
        rows.append((h, w, complex(re, im)))
    if not rows:
        raise DataFormatError("no data rows", line=2)
    fields = sorted({h for h, _, _ in rows})
    freqs = sorted({w for _, w, _ in rows})
    expected = len(fields) * len(freqs)
    if len(rows) != expected:
        have = {(h, w) for h, w, _ in rows}
        for h in fields:
            for w in freqs:
                if (h, w) not in have:
                    raise DataFormatError(
                        f"incomplete grid: missing row for h_oe={format_float(h)}, "
                        f"omega={format_float(w)}",
                        line=len(lines),
                    )
        raise DataFormatError(f"grid mismatch: {len(rows)} rows, expected {expected}",
                              line=len(lines))
    index_h = {h: i for i, h in enumerate(fields)}
    index_w = {w: j for j, w in enumerate(freqs)}
    values = np.empty((len(fields), len(freqs)), dtype=complex)
    for h, w, v in rows:
        values[index_h[h], index_w[w]] = v
    return SpectrumMap(np.array(fields), np.array(freqs), values)


def write_branches_csv(path, curves: BranchCurves) -> None:
    """Branch curves as CSV: one row per (field, branch index)."""
    lines = [BRANCH_HEADER]
    for i, h in enumerate(curves.fields):
        for k in range(curves.branches.shape[1]):
            eig = curves.branches[i, k]
            lines.append(",".join((format_float(h), str(k),
                                   format_float(eig.real), format_float(eig.imag))))
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write("\n".join(lines) + "\n")


def write_thickness_csv(path, rows) -> None:
    """Thickness series as CSV: (t_um, g1, g2, gap_p1, gap_p2) per row."""
    lines = [THICKNESS_HEADER]
    for t, g1, g2, gap_p1, gap_p2 in rows:
        lines.append(",".join(format_float(v) for v in (t, g1, g2, gap_p1, gap_p2)))
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write("\n".join(lines) + "\n")


def render_pgm(spectrum: SpectrumMap) -> bytes:
    """Binary 8-bit PGM of |s21|: dips dark, one pixel per grid point.

    Columns run over fields (ascending left to right); rows over
    frequencies with the highest at the top.  |s21| in [0, max] maps
    linearly to gray [255, 0]; an all-zero map renders white.
    """
    magnitude = np.abs(spectrum.values)
    peak = float(magnitude.max())
    if peak == 0.0:
        gray = np.full(magnitude.shape, 255, dtype=np.uint8)
    else:
        gray = np.rint(255.0 * (1.0 - magnitude / peak)).astype(np.uint8)
    image = gray.T[::-1, :]  # rows: frequency descending; columns: field ascending
    header = f"P5\n{image.shape[1]} {image.shape[0]}\n255\n".encode("ascii")
    return header + image.tobytes()


def write_pgm(path, spectrum: SpectrumMap) -> None:
    with open(path, "wb") as handle:
        handle.write(render_pgm(spectrum))
