"""File formats: spectrum CSV, branch CSV, thickness CSV, PGM heatmaps.

All floats are written as '%.17g' text, so a write - read - write cycle
is byte-identical and values survive exactly.  Files store model units
only.  The spectrum writer spells the exact '%.17g' text of each s21
value with array arithmetic as the four 64-bit words of a 32-byte slot
(_write_17g).  The spectrum reader parses plain files with array
arithmetic (_read_plain): each s21 value it keeps is proven equal to
float() of its token by a residual certificate (_certified), which holds
for any token of up to 18 digits, not only for the writer's; all other
files are parsed line by line (_read_spectrum_lines), with the same
values and errors.
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


# One value's text in a 32-byte slot of four little-endian words, NUL
# where unused: the sign (byte 0), "0." to "0.000" for -4 <= e <= -1
# (bytes 1-5), the first digit of D (byte 7), the other 16 (words 1-2),
# "e-06" or "e-05" for e < -4 (bytes 25-28) and the slot's end, ',' or
# '\n' (byte 31).  Trailing fraction zeros become NUL; then every digit
# after the point's place moves up one byte, the last into byte 24, and
# the gap takes '.' if a digit after it is kept.  _SLOT_TABLE[:, e]
# holds e's words 0 and 3, the mask of its integer digits in words 1-2
# (none for e < 0) and a 0x01 flag on its point's place (none for
# -4 <= e <= -1, where the point leads).

_U64 = np.uint64
_ONES = _U64(0x0101010101010101)
_ZEROS = _ONES * _U64(ord("0"))  # the text "00000000" as a word


def _slot_record(e) -> bytes:
    """Word 0, the integer digit mask and point flag in words 1-2, word 3."""
    integer = max(e, 0)  # digits between the first and the point
    lead = b"0." + b"0" * (-e - 1) if -4 <= e < 0 else b""
    point = b"" if lead else b"\0" * integer + b"\1"
    exponent = b"e-%02d" % -e if e < -4 else b""
    return (b"\0" + lead).ljust(8, b"\0") + (b"\xff" * integer).ljust(16, b"\0") \
        + point.ljust(16, b"\0") + (b"\0" + exponent).ljust(8, b"\0")


_SLOT_TABLE = np.frombuffer(b"".join(map(_slot_record, [*range(16), *range(-6, 0)])),  # -6..-1 from the end
                            dtype="<u8").reshape(22, 6).T


def _eight_digits_text(n):
    """The 8 digits of each n < 10^8, one value 0-9 per byte, the most
    significant in the lowest byte: 4-, 2- and 1-digit lanes in turn.
    """
    top = (n * _U64(3518437209)) >> _U64(45)  # n // 10^4
    n = top | ((n - top * _U64(10**4)) << _U64(32))
    top = ((n * _U64(10486)) >> _U64(20)) & _U64(0x0000007F0000007F)  # // 100 per lane
    n = top | ((n - top * _U64(100)) << _U64(16))
    top = ((n * _U64(103)) >> _U64(10)) & _U64(0x000F000F000F000F)  # // 10 per lane
    return top | ((n - top * _U64(10)) << _U64(8))


def _kept(digits):
    """0x01 on each byte at or before the word's last nonzero digit."""
    flags = ((digits + _ONES * _U64(0x7F)) & (_ONES * _U64(0x80))) >> _U64(7)
    for shift in (8, 16, 32):
        flags |= flags >> _U64(shift)
    return flags


def _write_17g(x, slots, end) -> None:
    """Write '%.17g' % v of each value of x, then the byte end, into the
    32-byte slots: row k of slots is x[k]'s four little-endian words.

    ±0 and 1e-6 < |v| < 1e16 take the array route; every other value
    (subnormal, tiny, huge, nan, inf) is formatted by Python.
    """
    a = np.abs(x)
    inner = (a > 1e-6) & (a < 1e16)
    e, digits = _decimal_17(np.where(inner, a, 1.0))
    digits[a == 0.0] = 0  # prints "0", or "-0" with the sign
    word0, integer1, integer2, point1, point2, word3 = (column.take(e) for column in _SLOT_TABLE)
    digits = digits.view(_U64)
    first = digits // _U64(10**16)
    rest = digits - first * _U64(10**16)
    high = rest // _U64(10**8)
    low = _eight_digits_text(rest - high * _U64(10**8))
    high = _eight_digits_text(high)
    kept2 = _kept(low)
    kept1 = _kept(high) | (kept2 & _U64(1)) * _ONES  # a digit kept in word 2 keeps all of word 1
    high = (high | _ZEROS) & (kept1 * _U64(0xFF) | integer1)
    low = (low | _ZEROS) & (kept2 * _U64(0xFF) | integer2)
    moved1, moved2 = high & ~integer1, low & ~integer2
    slots[:, 0] = word0 | (np.signbit(x) * _U64(ord("-"))) | ((first | _U64(ord("0"))) << _U64(56))
    slots[:, 1] = (high & integer1) | (moved1 << _U64(8)) | (kept1 & point1) * _U64(ord("."))
    slots[:, 2] = ((low & integer2) | (moved2 << _U64(8)) | (moved1 >> _U64(56))
                   | (kept2 & point2) * _U64(ord(".")))
    slots[:, 3] = word3 | (moved2 >> _U64(56)) | _U64(end << 56)
    other = np.flatnonzero(~inner & (a != 0.0))
    if other.size:
        text = np.array([("%.17g" % v).encode("ascii") for v in x[other].tolist()], dtype="S32")
        slots[other] = text.view("<u8").reshape(-1, 4)  # at most 24 bytes of text
        slots[other, 3] |= _U64(end << 56)


_WRITE_BLOCK = 32  # fields per block of the spectrum writer: its buffers do not grow with the grid


def write_spectrum_csv(path, spectrum: SpectrumMap) -> None:
    """Spectrum map as CSV, rows ordered by (h_oe, omega) ascending.

    Rows are built _WRITE_BLOCK fields at a time in one buffer of words:
    the field, ',', the frequency and ',', NUL-padded to whole words, then
    the real and imaginary part's slots (_write_17g).  The words of
    frequency text alone are filled once; each block rewrites the field's
    words and the slots, and its NUL bytes are dropped before it is written.
    """
    heads, tails = ([format_float(v).encode("ascii") + b"," for v in axis.tolist()]
                    for axis in (spectrum.fields, spectrum.freqs))
    width = max(map(len, heads))  # the byte where each frequency starts
    words = -(-(width + max(map(len, tails))) // 8)  # the row's text before the slots
    head_words, n_freqs = -(-width // 8), len(tails)
    heads = np.array(heads, dtype=f"S{8 * head_words}").view("<u8").reshape(-1, head_words)
    tails = np.array([b"\0" * width + t for t in tails], dtype=f"S{8 * words}")
    tails = tails.view("<u8").reshape(-1, words)
    rows = np.zeros((min(_WRITE_BLOCK, len(heads)) * n_freqs, words + 8), dtype="<u8")
    rows.reshape(-1, n_freqs, words + 8)[..., head_words:words] = tails[:, head_words:]
    with open(path, "wb") as handle:
        handle.write((SPECTRUM_HEADER + "\n").encode("ascii"))
        for start in range(0, len(heads), _WRITE_BLOCK):
            values = spectrum.values[start:start + _WRITE_BLOCK]
            block = rows[:values.size]
            np.bitwise_or(heads[start:start + _WRITE_BLOCK, None], tails[:, :head_words],
                          out=block.reshape(-1, n_freqs, words + 8)[..., :head_words])
            _write_17g(values.real.ravel(), block[:, words:words + 4], ord(","))
            _write_17g(values.imag.ravel(), block[:, words + 4:], ord("\n"))
            handle.write(block.tobytes().translate(None, b"\0"))


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
# that its value is M·10^q.  Where -22 <= q <= 0, a double-double
# quotient by the exact 10^-q gives a candidate double c, kept only where
# Clinger's residual test certifies it (_certified): M - c·10^-q, exact
# to within M·2^-100, is smaller than half the gap below c, so no other
# double is as near and c is float(token), 18-digit tokens included.
# Every other token goes through float().

_HEADER_LINE = (SPECTRUM_HEADER + "\n").encode("ascii")
_PLAIN_BYTES = b"0123456789+-.eE,\n"
_READ_CHUNK = 1 << 18  # bytes per read
_PAD = 32  # NUL bytes around each read, so that every window stays inside the buffer
_ROW_SEPARATORS = np.frombuffer(b",,,\n", dtype="<u4")[0]

# Word masks are built by shifts: _ALL << 8·k keeps the top 8 - k bytes,
# and numpy's shifts give 0 for a count of 64 or more.
_ALL = ~_U64(0)
_HIGH = _ONES * _U64(0x80)
_NINES = _ONES * _U64(0x76)  # a byte b <= 9 stays below 0x80 when this is added
_HALF_GAP = 0.5 - 2.0**-40  # the certificate's share of the gap below c, with room for rounding
# With k fraction digits, whole·10^k + frac < 10^18 iff whole < _WHOLE_LIMIT[k]:
# whole must be 0 from k = 18, where _INT10 holds 0, and k = 25 is refused.
_WHOLE_LIMIT = np.array([10 ** max(18 - k, 0) if k < 25 else 0 for k in range(26)], dtype=np.uint64)
_INT10 = np.append(10 ** np.arange(18, dtype=np.int64), np.zeros(8, dtype=np.int64))


def _windows(buf, size, at) -> np.ndarray:
    """The size bytes from each offset of at, as rows of size // 8 words."""
    view = np.ndarray((len(buf) - size + 1,), dtype=f"V{size}", buffer=buf, strides=(1,))
    return view[at].view("<u8").reshape(-1, size // 8)


def _non_digits(values):
    """0 where each byte of values, 8 characters XOR "00000000", is a
    digit 0-9; else the high bit of the first other byte is set (and
    maybe some above it).
    """
    return ((values + _NINES) | values) & _HIGH


def _eight_digits(values):
    """The value of 8 digits 0-9, one per byte, the lowest byte most
    significant: 2-, 4- and 8-digit groups in turn.
    """
    values = ((values * _U64(10 * 2**8 + 1)) >> _U64(8)) & _U64(0x00FF00FF00FF00FF)
    values = ((values * _U64(100 * 2**16 + 1)) >> _U64(16)) & _U64(0x0000FFFF0000FFFF)
    return (values * _U64(10000 * 2**32 + 1)) >> _U64(32)


def _floats(buf, start, end) -> np.ndarray:
    """float() of each token; a token it rejects raises ValueError."""
    return np.array([float(buf[a:b]) for a, b in zip(start.tolist(), end.tolist())], dtype=float)


def _text_keys(buf, start, end):
    """Each token's last 24 bytes, NUL before its start, as three arrays
    of words, and whether it is longer; a longer token's key matches no
    other.
    """
    bits = (end - start) << 3
    words = min(3, -(-int(bits.max(initial=0)) // 64))  # from the end; the others are 0
    keys = [np.zeros(bits.size, dtype=np.uint64) for _ in range(3 - words)]
    text = _windows(buf, 8 * words, end - 8 * words) if words else None
    for k in range(words):  # 64·(words - k) bits from its start to the end
        before = np.maximum(64 * (words - k) - bits, 0).view(np.uint64)
        keys.append(text[:, k] & (_ALL << before))
    long = bits > 8 * 24
    if long.any():
        for key in keys:
            key[long] = _ALL  # no byte of a plain token is 0xff
    return keys, long


def _same(a, b) -> np.ndarray:
    return (a[0] == b[0]) & (a[1] == b[1]) & (a[2] == b[2])


def _integer_digits(buf, start):
    """(neg, point, n_int, has_point, whole) of each token: its sign, and
    the n_int (at most 7) digits after it, of value whole, which end at
    offset point, a '.' if has_point.
    """
    head = _windows(buf, 8, start)[:, 0]  # the first 8 characters
    first = head & _U64(0xFF)
    neg = first == ord("-")
    signed = neg | (first == ord("+"))
    values = (head >> (signed * _U64(8))) ^ _ZEROS  # digit characters become 0-9
    bad = _non_digits(values) | _U64(0x80 << 56)
    bad &= _U64(0) - bad  # its lowest set bit: the first non-digit
    bits = ((bad >> _U64(7)) * _U64(0x0008101820283038)) >> _U64(56)  # 8 per digit
    has_point = ((values >> bits) & _U64(0xFF)) == (ord(".") ^ ord("0"))
    whole = _eight_digits(values << (_U64(64) - bits))
    n_int = (bits >> _U64(3)).view(np.int64)
    return neg, start + signed + n_int, n_int, has_point, whole


def _exponents(last):
    """(has_e, power) of tokens whose last 8 characters are last: 'e' or
    'E', a sign and two digits, or no exponent and power 0.
    """
    has_e = ((last >> _U64(32)) & _U64(0xF0F0F9DF)) == 0x30302945
    power = ((last & _U64(0x0F0F << 48)) * _U64(10 * 2**8 + 1)) >> _U64(56)  # 10·tens + units
    sign = ((last >> _U64(40)) & _U64(2)) - _U64(1)  # bit 1: '+' 1, '-' 0
    return has_e, (power * sign).view(np.int64) * has_e


def _fraction_digits(tail, n_frac):
    """(value, ok): the last n_frac of the 24 characters in the (n, 3)
    words of tail; ok where they are digits and value < 10^18.
    """
    bits = n_frac << 3
    value, over = _U64(0), _U64(0)
    for k in range(3 - min(3, -(-int(bits.max(initial=0)) // 64)), 3):  # words with digits
        # word k: its digits are the top bytes among the last 64·(3 - k) bits
        word = (tail[:, k] ^ _ZEROS) & (_ALL << np.maximum(64 * (3 - k) - bits, 0).view(np.uint64))
        over = over | (word + _NINES) | word  # _non_digits, over every word
        digits = _eight_digits(word)
        if k == 0:
            over = over | (digits >= _U64(100)) << _U64(7)  # value < 10^18
        value = value * _U64(10**8) + digits
    return value, (over & _HIGH) == 0


def _significands(buf, start, end):
    """(neg, m, exponent, ok): each s21 token is (-1)^neg · m · 10^exponent
    where ok, with m < 10^18; exponent lies in -22..0 for every token.
    """
    has_e, power = _exponents(_windows(buf, 8, end - 8)[:, 0])
    stop = end - 4 * has_e  # the end of the digits and point
    neg, point, n_int, has_point, whole = _integer_digits(buf, start)
    n_frac = stop - point - has_point  # >= 0: the integer digits end by stop
    frac, ok = _fraction_digits(_windows(buf, 24, stop - 24), n_frac)
    ok &= (has_point | (point == stop)) & (n_int + n_frac > 0)
    at = np.minimum(n_frac, 25)
    ok &= whole < _WHOLE_LIMIT[at]  # m < 10^18, and at most 24 fraction digits
    exponent = power - n_frac
    clipped = np.minimum(np.maximum(exponent, -22), 0)
    ok &= clipped == exponent
    m = whole.view(np.int64) * _INT10[at] + frac.view(np.int64)
    return neg, np.where(ok, m, 0), clipped, ok


def _quotients(m, exponent) -> np.ndarray:
    """m·10^exponent to within an ulp: a double-double quotient by the
    exact power of ten; m < 10^18, -22 <= exponent <= 0.
    """
    scale = -exponent
    hi = m.astype(np.float64)
    lo = (m - hi.astype(np.int64)).astype(np.float64)  # m = hi + lo exactly
    power10 = _POW10[scale]
    value = hi / power10
    p_hi, p_lo = _scaled(value, scale)
    return value + (((hi - p_hi) - p_lo) + lo) / power10


def _certified(m, exponent, c) -> np.ndarray:
    """Where c is float(m·10^exponent), proven: Clinger's residual test.

    Needs m < 10^18, -22 <= exponent <= 0 and c >= 0.  The residual
    m - c·10^-exponent is exact to within m·2^-100 (Dekker's product is
    exact and the sum is nearly so); c is kept where it is at most half
    the gap between c and the double before it, times 10^-exponent, less
    a 2^-40 share.  That gap is never wider than the one above c, so the
    value lies strictly nearer to c than to any other double, ties
    excluded, and float() rounds it to c.  c = 0 has a gap of 0: it is
    kept for m = 0 alone.
    """
    scale = -exponent
    hi = m.astype(np.float64)
    lo = (m - hi.astype(np.int64)).astype(np.float64)  # m = hi + lo exactly
    p_hi, p_lo = _scaled(c, scale)
    residual = ((hi - p_hi) - p_lo) + lo
    gap = c - (np.maximum(c.view(np.int64), 1) - 1).view(np.float64)  # c less the double before it
    return np.abs(residual) <= gap * _POW10[scale] * _HALF_GAP


def _decimals(buf, start, end) -> np.ndarray:
    """float() of each s21 token, exact: SWAR where certified, float() elsewhere."""
    neg, m, exponent, ok = _significands(buf, start, end)
    value = _quotients(m, exponent)
    ok &= _certified(m, exponent, value)
    value = np.where(neg, -value, value)
    slow = np.flatnonzero(~ok)
    if slow.size:
        value[slow] = _floats(buf, start[slow], end[slow])
    return value


def _row_pairs(seps, k):
    """seps[4r + k] and seps[4r + k + 1] of each row r, interleaved: one
    16-byte item a row, so the copy runs at the speed of a 1-D array."""
    return np.ascontiguousarray(seps[k:k + seps.size - 2].view(np.complex128)[::2]).view(np.int64)


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
        seps = _PAD + np.flatnonzero(b[_PAD:] < ord("-"))  # ',', '\n' and '+' of the plain bytes
        found = b[seps]
        if (found == ord("+")).any():
            seps = seps[found != ord("+")]
            found = b[seps]
        if seps.size % 4 or not (found.view("<u4") == _ROW_SEPARATORS).all():
            return False
        end = seps.reshape(-1, 4)  # the comma or line break after each token
        n = end.shape[0]
        line = np.empty(n, dtype=np.int64)
        line[0] = _PAD
        line[1:] = end[:-1, 3] + 1

        # h_oe: a token whose text is the previous row's has its value.
        keys, long = _text_keys(buf, line, end[:, 0])
        new = np.empty(n, dtype=bool)
        new[1:] = ~_same([key[1:] for key in keys], [key[:-1] for key in keys])
        new[0] = self.h_key is None or not _same([key[0] for key in keys], self.h_key)
        new |= long
        at = np.flatnonzero(new)
        h = _floats(buf, line[at], end[at, 0])
        if not new[0]:  # the last read's h_oe goes on
            at, h = np.append(0, at), np.append(self.last[0], h)
        h = np.repeat(h, np.diff(np.append(at, n)))
        self.h_key = [key[-1] for key in keys]  # scalars, not views that keep this read's keys

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
            self.freq_keys.append([key[:first] for key in keys])
            self.freqs.append(omega[:first])
            if first < n:
                self.freq_keys = [np.concatenate(word) for word in zip(*self.freq_keys)]
                self.freqs = np.concatenate(self.freqs)
                self.n_freqs = self.freqs.size
        if first < n:
            place = (self.rows + np.arange(first, n)) % self.n_freqs
            omega[first:] = self.freqs[place]
            other = first + np.flatnonzero(~_same([key[first:] for key in keys],
                                                  [key[place] for key in self.freq_keys])
                                           | long[first:])
            omega[other] = _floats(buf, start[other], end[other, 1])

        parts = _decimals(buf, _row_pairs(seps, 1) + 1, _row_pairs(seps, 2))  # re, im of each row
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
    # ascending rows are distinct grid points, so a short count always has a missing row
    if len(rows) != len(fields) * len(freqs):
        have = {(h, w) for h, w, _ in rows}
        for h in fields:
            for w in freqs:
                if (h, w) not in have:
                    raise DataFormatError(
                        f"incomplete grid: missing row for h_oe={format_float(h)}, "
                        f"omega={format_float(w)}",
                        line=len(lines),
                    )
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
