"""File formats: spectrum CSV, branch CSV, thickness CSV, PGM heatmaps.

All floats are written as '%.17g' text, so a write - read - write cycle
is byte-identical and values survive exactly.  Files store model units
only.  The spectrum writer computes the '%.17g' digits of its s21 values
exactly with array arithmetic (_format_17g), so its bytes are those of
'%.17g' % v for every value.
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


# The array reader takes only the exact header line followed by lines
# over these bytes.  On them np.loadtxt and float() return the same
# bits, and '\n' is the only line break either parser sees.
_HEADER_LINE = (SPECTRUM_HEADER + "\n").encode("ascii")
_PLAIN_BYTES = b"0123456789+-.eE,\n"


def read_spectrum_csv(path) -> SpectrumMap:
    """Parse a spectrum CSV back into a map.

    The file must carry the exact header, one row per grid point,
    ordered ascending by (h_oe, omega), with every field sharing the
    same frequency list, and every value finite.  Violations, non-finite
    values included, raise DataFormatError carrying the offending line
    number (CLI exit 5).

    Plain files (see _PLAIN_BYTES) are parsed by np.loadtxt and checked
    with array operations.  Every other file, and every file those
    checks refuse, goes to the line parser, _read_spectrum_lines.  The
    reader therefore takes exactly the files the line parser takes, with
    the same value bits, and every error message and line number comes
    from the line parser.
    """
    rows = _load_plain_rows(path)
    spectrum = None if rows is None else _grid_from_rows(rows)
    return _read_spectrum_lines(path) if spectrum is None else spectrum


def _load_plain_rows(path) -> np.ndarray | None:
    """Rows of a plain file as an (n, 4) array, or None."""
    with open(path, "rb") as handle:
        header = handle.readline()
        body = handle.read()
    breaks = body.count(b"\n")
    # A body of line breaks alone would make np.loadtxt warn "no data".
    if header != _HEADER_LINE or breaks == len(body) or body.translate(None, _PLAIN_BYTES):
        return None
    n_lines = breaks + (not body.endswith(b"\n"))
    del body  # free the bytes before np.loadtxt allocates its rows
    # A handle, not the path: np.loadtxt would open a path by its suffix
    # (.gz, .bz2, .xz) as a compressed file.
    with open(path, "r", encoding="utf-8") as handle:
        try:
            rows = np.loadtxt(handle, delimiter=",", skiprows=1, comments=None, ndmin=2)
        except ValueError:  # unparseable number or ragged columns
            return None
    # np.loadtxt skips blank lines, which the line parser rejects.
    return rows if rows.shape == (n_lines, 4) else None


def _grid_from_rows(rows: np.ndarray) -> SpectrumMap | None:
    """The map of finite rows ascending over a complete grid, or None."""
    if not np.isfinite(rows).all():
        return None
    h, w = rows[:, 0], rows[:, 1]
    same_h = h[1:] == h[:-1]
    if not np.all((h[1:] > h[:-1]) | (same_h & (w[1:] > w[:-1]))):
        return None
    n_freqs = int(np.count_nonzero(h == h[0]))  # h ascends: the first block
    if h.size % n_freqs:
        return None
    grid = rows.reshape(-1, n_freqs, 4)
    if not ((grid[:, :, 0] == grid[:, :1, 0]).all() and (grid[:, :, 1] == grid[:1, :, 1]).all()):
        return None
    values = np.empty(grid.shape[:2], dtype=complex)
    values.real = grid[:, :, 2]
    values.imag = grid[:, :, 3]
    return SpectrumMap(grid[:, 0, 0].copy(), grid[0, :, 1].copy(), values)


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
