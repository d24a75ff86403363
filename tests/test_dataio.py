"""File formats: spectrum and branch CSV, thickness CSV, PGM heatmaps."""

import os
import threading

import numpy as np
import pytest

from cavmag.dataio import (
    BRANCH_HEADER,
    _read_plain,
    SPECTRUM_HEADER,
    THICKNESS_HEADER,
    format_float,
    read_spectrum_csv,
    render_pgm,
    write_branches_csv,
    write_output,
    write_pgm,
    write_spectrum_csv,
    write_thickness_csv,
)
from cavmag.errors import DataFormatError
from cavmag.sweep import BranchCurves, SpectrumMap


def random_map(n_fields=5, n_freqs=7, seed=11):
    rng = np.random.default_rng(seed)
    fields = np.sort(rng.uniform(100.0, 5000.0, n_fields))
    freqs = np.sort(rng.uniform(27.0, 31.0, n_freqs))
    values = rng.normal(size=(n_fields, n_freqs)) + 1j * rng.normal(size=(n_fields, n_freqs))
    return SpectrumMap(fields, freqs, values)


# ── Spectrum CSV ───────────────────────────────────────────────────────


def test_format_float_17_digits():
    assert format_float(0.1) == "0.10000000000000001"
    assert format_float(1000.0) == "1000"
    assert float(format_float(np.pi)) == np.pi


def test_spectrum_round_trip_exact(tmp_path):
    spectrum = random_map()
    path = tmp_path / "map.csv"
    write_spectrum_csv(path, spectrum)
    back = read_spectrum_csv(path)
    assert np.array_equal(back.fields, spectrum.fields)
    assert np.array_equal(back.freqs, spectrum.freqs)
    assert np.array_equal(back.values, spectrum.values)
    again = tmp_path / "again.csv"
    write_spectrum_csv(again, back)
    assert path.read_bytes() == again.read_bytes()


def test_spectrum_header_and_row_count(tmp_path):
    spectrum = random_map(n_fields=2, n_freqs=2)
    path = tmp_path / "map.csv"
    write_spectrum_csv(path, spectrum)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == SPECTRUM_HEADER
    assert len(lines) == 1 + 4  # header + one row per grid point


def test_spectrum_read_rejects_bad_header(tmp_path):
    path = tmp_path / "map.csv"
    path.write_text("h,omega,re,im\n1,2,3,4\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match="line 1") as err:
        read_spectrum_csv(path)
    assert err.value.line == 1


def test_spectrum_read_rejects_bad_rows(tmp_path):
    path = tmp_path / "map.csv"
    path.write_text(f"{SPECTRUM_HEADER}\n1,2,3\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match="line 2: expected 4 columns"):
        read_spectrum_csv(path)
    path.write_text(f"{SPECTRUM_HEADER}\n1,2,3,oops\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match="line 2: unparseable"):
        read_spectrum_csv(path)
    path.write_text(f"{SPECTRUM_HEADER}\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match="no data rows"):
        read_spectrum_csv(path)
    path.write_text("", encoding="utf-8")
    with pytest.raises(DataFormatError, match="empty"):
        read_spectrum_csv(path)


@pytest.mark.parametrize("column", range(4))
@pytest.mark.parametrize("text", ["-inf", "nan"])
def test_spectrum_read_rejects_non_finite_values(tmp_path, column, text):
    rows = [["1", "1", "0", "0"], ["1", "2", "0", "0"], ["2", "1", "0", "0"], ["2", "2", "0", "0"]]
    rows[2][column] = text
    path = tmp_path / "map.csv"
    path.write_text(SPECTRUM_HEADER + "\n" + "\n".join(map(",".join, rows)) + "\n",
                    encoding="utf-8")
    with pytest.raises(DataFormatError, match="line 4: non-finite value") as err:
        read_spectrum_csv(path)
    assert err.value.line == 4


def test_spectrum_read_rejects_out_of_order_rows(tmp_path):
    path = tmp_path / "map.csv"
    rows = ["2,1,0,0", "1,1,0,0", "1,2,0,0", "2,2,0,0"]
    path.write_text(SPECTRUM_HEADER + "\n" + "\n".join(rows) + "\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match="out of order"):
        read_spectrum_csv(path)


def test_spectrum_read_names_first_grid_gap(tmp_path):
    spectrum = random_map(n_fields=3, n_freqs=3)
    path = tmp_path / "map.csv"
    write_spectrum_csv(path, spectrum)
    lines = path.read_text(encoding="utf-8").splitlines()
    removed = lines.pop(2)  # drop the (fields[0], freqs[1]) row
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match="incomplete grid") as err:
        read_spectrum_csv(path)
    h_text, w_text = removed.split(",")[:2]
    assert f"h_oe={h_text}" in str(err.value)
    assert f"omega={w_text}" in str(err.value)


def test_spectrum_read_refuses_a_short_last_field_block(tmp_path):
    # the plain-row reader refuses the file; the checking reader names the gap
    path = tmp_path / "map.csv"
    rows = ["1000,27,0,0", "1000,28,0,0", "1100,27,0,0"]
    path.write_text(SPECTRUM_HEADER + "\n" + "\n".join(rows) + "\n", encoding="utf-8")
    assert _read_plain(path) is None
    with pytest.raises(DataFormatError) as err:
        read_spectrum_csv(path)
    assert str(err.value) == "line 4: incomplete grid: missing row for h_oe=1100, omega=28"


# ── Writing in place ───────────────────────────────────────────────────


@pytest.mark.parametrize("old_fields, new_fields", [(40, 3), (3, 40)], ids=["longer-old", "shorter-old"])
def test_a_map_written_over_an_old_file_has_the_bytes_of_a_fresh_write(tmp_path, old_fields,
                                                                       new_fields):
    path, fresh = tmp_path / "map.csv", tmp_path / "fresh.csv"
    write_spectrum_csv(path, random_map(n_fields=old_fields, seed=1))
    spectrum = random_map(n_fields=new_fields, seed=2)
    write_spectrum_csv(path, spectrum)
    write_spectrum_csv(fresh, spectrum)
    assert path.read_bytes() == fresh.read_bytes()  # no stale tail


def test_output_stops_early_with_a_first_line_of_hashes(tmp_path):
    path = tmp_path / "map.csv"
    write_spectrum_csv(path, random_map())

    def body():
        yield b"1,2,3,4\n"
        raise OSError(28, "No space left on device")

    with pytest.raises(OSError, match="No space left"):
        write_output(path, b"h_oe,omega,re_s21,im_s21\n", body())
    assert path.read_bytes().startswith(b"#" * len(SPECTRUM_HEADER) + b"\n1,2,3,4\n")


def test_a_fifo_gets_the_first_line_then_the_body(tmp_path):
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
    reader.start()
    spectrum = random_map(n_fields=40)
    write_spectrum_csv(fifo, spectrum)
    reader.join(timeout=30)
    assert not reader.is_alive()
    write_spectrum_csv(tmp_path / "map.csv", spectrum)
    assert got == [(tmp_path / "map.csv").read_bytes()]


# ── Branch CSV ─────────────────────────────────────────────────────────


def test_branches_round_trip_exact(tmp_path):
    rng = np.random.default_rng(23)
    fields = np.sort(rng.uniform(100.0, 5000.0, 6))
    branches = np.sort(rng.normal(size=(6, 3)), axis=1) - 0.05j
    curves = BranchCurves(fields, branches)
    path = tmp_path / "branches.csv"
    write_branches_csv(path, curves)
    assert path.read_text(encoding="utf-8").splitlines()[0] == BRANCH_HEADER
    rows = np.loadtxt(path, delimiter=",", skiprows=1).reshape(6, 3, 4)
    assert np.array_equal(rows[:, :, 1], np.broadcast_to(np.arange(3), (6, 3)))
    back = BranchCurves(rows[:, 0, 0], rows[:, :, 2] + 1j * rows[:, :, 3])
    assert np.array_equal(back.fields, curves.fields)
    assert np.array_equal(back.branches, curves.branches)
    again = tmp_path / "again.csv"
    write_branches_csv(again, back)
    assert path.read_bytes() == again.read_bytes()


@pytest.mark.parametrize("reader, header", [(read_spectrum_csv, SPECTRUM_HEADER)])
@pytest.mark.parametrize("prefix, line", [(b"", 2), (b"1,1,0,0\r\n", 3)],
                         ids=["first-row", "after-crlf"])
def test_readers_name_the_line_of_a_byte_that_is_not_utf8(tmp_path, reader, header,
                                                          prefix, line):
    path = tmp_path / "data.csv"
    path.write_bytes(header.encode("ascii") + b"\n" + prefix + b"1,2,3,\xff\n")
    with pytest.raises(DataFormatError, match=f"line {line}: byte 0xff is not valid UTF-8"):
        reader(path)


# ── Thickness CSV ──────────────────────────────────────────────────────


def test_thickness_csv_layout(tmp_path):
    path = tmp_path / "thickness.csv"
    write_thickness_csv(path, [(5.0, 0.155, 0.11, 0.31, 0.22)])
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == THICKNESS_HEADER
    assert lines[1] == "5,0.155,0.11,0.31,0.22"


# ── PGM heatmaps ───────────────────────────────────────────────────────


def test_pgm_layout_and_levels(tmp_path):
    fields = np.array([1.0, 2.0, 3.0])
    freqs = np.array([10.0, 20.0])
    values = np.array([
        [0.0 + 0.0j, 0.5 + 0.0j],
        [0.0 + 0.0j, 0.0 + 0.0j],
        [1.0 + 0.0j, 0.0 + 0.0j],
    ])
    spectrum = SpectrumMap(fields, freqs, values)
    blob = render_pgm(spectrum)
    header = f"P5\n{fields.size} {freqs.size}\n255\n".encode("ascii")
    assert blob.startswith(header)
    pixels = np.frombuffer(blob[len(header):], dtype=np.uint8).reshape(freqs.size, fields.size)
    # row 0 is the highest frequency; strongest response is darkest
    assert pixels[0, 0] == 128  # (field 1, freq 20): half strength, rint(127.5)
    assert pixels[1, 2] == 0    # (field 3, freq 10): peak response, black
    assert pixels[1, 0] == 255  # zero response, white
    path = tmp_path / "map.pgm"
    write_pgm(path, spectrum)
    assert path.read_bytes() == blob


def test_pgm_all_zero_is_white():
    spectrum = SpectrumMap(np.array([1.0, 2.0]), np.array([1.0]),
                           np.zeros((2, 1), complex))
    blob = render_pgm(spectrum)
    pixels = np.frombuffer(blob[len(b"P5\n2 1\n255\n"):], dtype=np.uint8)
    assert np.all(pixels == 255)
