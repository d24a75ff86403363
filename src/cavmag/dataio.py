"""File formats: spectrum CSV, branch CSV, thickness CSV, PGM heatmaps.

All floats are written with 17 significant digits so a write - read -
write cycle is byte-identical and values survive exactly.  Files store
model units only.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DataFormatError
from .sweep import BranchCurves, SpectrumMap

SPECTRUM_HEADER = "h_oe,omega,re_s21,im_s21"
BRANCH_HEADER = "h_oe,branch_index,re_eig,im_eig"
THICKNESS_HEADER = "t_um,g1,g2,gap_p1,gap_p2"


def format_float(value: float) -> str:
    return "%.17g" % value


def write_spectrum_csv(path, spectrum: SpectrumMap) -> None:
    """Spectrum map as CSV, rows ordered by (h_oe, omega) ascending.

    Each field and frequency is formatted once; every field then fills
    one row template with its real and imaginary parts.
    """
    row_tails = [f",{format_float(w)},%.17g,%.17g" for w in spectrum.freqs]
    parts = np.stack((spectrum.values.real, spectrum.values.imag), axis=-1)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(SPECTRUM_HEADER + "\n")
        for h, row in zip(spectrum.fields, parts.reshape(spectrum.fields.size, -1)):
            head = format_float(h)
            template = head + ("\n" + head).join(row_tails) + "\n"
            handle.write(template % tuple(row.tolist()))


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


def read_branches_csv(path) -> BranchCurves:
    """Parse a branch CSV back into curves.

    Malformed rows, non-finite values included, raise DataFormatError
    carrying the offending line number.
    """
    lines = read_text(path).splitlines()
    if not lines or lines[0] != BRANCH_HEADER:
        raise DataFormatError(f"expected header {BRANCH_HEADER!r}", line=1)
    per_field: dict[float, dict[int, complex]] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != 4:
            raise DataFormatError(f"expected 4 columns, got {len(parts)}", line=lineno)
        try:
            h = float(parts[0])
            k = int(parts[1])
            value = complex(float(parts[2]), float(parts[3]))
        except ValueError:
            raise DataFormatError(f"unparseable row {line!r}", line=lineno) from None
        if not (math.isfinite(h) and math.isfinite(value.real) and math.isfinite(value.imag)):
            raise DataFormatError(f"non-finite value in {line!r}", line=lineno)
        per_field.setdefault(h, {})[k] = value
    if not per_field:
        raise DataFormatError("no data rows", line=2)
    fields = sorted(per_field)
    n_branches = max(len(v) for v in per_field.values())
    branches = np.empty((len(fields), n_branches), dtype=complex)
    for i, h in enumerate(fields):
        row = per_field[h]
        if len(row) != n_branches or sorted(row) != list(range(n_branches)):
            raise DataFormatError(f"incomplete branch set at h_oe={format_float(h)}",
                                  line=len(lines))
        for k, value in row.items():
            branches[i, k] = value
    return BranchCurves(np.array(fields), branches)


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
