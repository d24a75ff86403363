"""Vectorised ridge extraction against the per-column loop it replaced.

extract_ridges finds the local maxima of every column with one mask and
refines them elementwise; the oracle below is the former scalar route,
one column and one peak at a time.  Both must return the same RidgeSet
bit for bit on maps rich in ties, plateaus, edge maxima, extreme
magnitudes and peaks whose parabola is not concave.  Hypothesis runs
derandomized, so failures reproduce.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cavmag.fitting import RidgeSet, extract_ridges
from cavmag.sweep import SpectrumMap


def oracle_parabola(x, y):
    t_left = float(x[0] - x[1])
    t_right = float(x[2] - x[1])
    slope_left = (float(y[1]) - float(y[0])) / (-t_left)
    slope_right = (float(y[2]) - float(y[1])) / t_right
    a = (slope_right - slope_left) / (t_right - t_left)
    b = slope_right - a * t_right
    return a, b


def oracle_refine_peak(freqs, mag, k):
    x = freqs[k - 1 : k + 2]
    y = mag[k - 1 : k + 2]
    a, b = oracle_parabola(x, y)
    if not (a < 0.0):
        return float(x[1]), float(y[1])
    tv = -b / (2.0 * a)
    if not (x[0] <= x[1] + tv <= x[2]):
        return float(x[1]), float(y[1])
    return float(x[1]) + tv, float(y[1]) - b * b / (4.0 * a)


def oracle_ridges(spectrum, n_ridges, min_separation):
    freqs = spectrum.freqs
    columns = []
    for row in np.abs(spectrum.values):
        found = []
        for k in range(1, freqs.size - 1):
            if row[k] > row[k - 1] and row[k] > row[k + 1]:
                found.append(oracle_refine_peak(freqs, row, k))
        found.sort(key=lambda p: -p[1])
        kept = []
        for freq, _height in found:
            if all(abs(freq - other) >= min_separation for other in kept):
                kept.append(freq)
            if len(kept) == n_ridges:
                break
        columns.append(np.array(sorted(kept), dtype=float))
    return RidgeSet(fields=spectrum.fields, peaks=tuple(columns))


def same_ridges(got, want):
    return (got.fields.tobytes() == want.fields.tobytes()
            and len(got.peaks) == len(want.peaks)
            and all(g.dtype == w.dtype and g.tobytes() == w.tobytes()
                    for g, w in zip(got.peaks, want.peaks)))


def random_column_values(rng, n_fields, n_freqs, style):
    shape = (n_fields, n_freqs)
    if style == "levels":  # few distinct values: ties and plateaus everywhere
        values = rng.integers(-3, 4, shape).astype(float)
    elif style == "smooth":
        values = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    elif style == "tiny":  # subnormal steps: curvature underflows to zero
        values = rng.integers(0, 6, shape) * 5e-324
    elif style == "huge":  # |s21| and the parabola overflow
        phase = 1 + 1j * rng.integers(0, 2, shape)
        values = rng.choice([1e308, -1.7e308, 1e307, 0.0], shape) * phase
    else:  # "edges": maxima on the first and last frequency
        values = rng.normal(size=shape)
        values[:, 0] = values[:, -1] = 10.0
    return values


def random_freqs(rng, n_freqs, style):
    if style == "close":  # spacings near one ulp of the abscissa
        return 29.0 + np.cumsum(rng.integers(1, 4, n_freqs)) * 3.6e-15
    steps = rng.uniform(1e-3, 1.0, n_freqs) if style == "uneven" else np.full(n_freqs, 0.01)
    return 27.0 + np.cumsum(steps)


@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), n_fields=st.integers(1, 5), n_freqs=st.integers(1, 30),
       value_style=st.sampled_from(["levels", "smooth", "tiny", "huge", "edges"]),
       freq_style=st.sampled_from(["uniform", "uneven", "close"]),
       n_ridges=st.integers(1, 4), separation=st.sampled_from([1e-16, 1e-3, 0.02, 0.3, 5.0]))
@example(seed=0, n_fields=2, n_freqs=28, value_style="huge", freq_style="uneven", n_ridges=2,
         separation=1e-16)  # a refined peak whose height overflows to NaN
def test_ridges_match_the_per_column_loop(seed, n_fields, n_freqs, value_style, freq_style,
                                          n_ridges, separation):
    rng = np.random.default_rng(seed)
    spectrum = SpectrumMap(np.arange(n_fields, dtype=float) * 100.0,
                           random_freqs(rng, n_freqs, freq_style),
                           random_column_values(rng, n_fields, n_freqs, value_style))
    with np.errstate(all="ignore"):  # the oracle's np.abs overflows on "huge" maps too
        want = oracle_ridges(spectrum, n_ridges, separation)
    assert same_ridges(extract_ridges(spectrum, n_ridges, separation), want)


def test_ridges_match_on_a_model_map():
    # the same agreement on a smooth two-anticrossing map with many peaks
    rng = np.random.default_rng(3)
    freqs = np.linspace(27.0, 31.0, 401)
    fields = np.linspace(200.0, 6800.0, 40)
    centres = 29.0 + np.sin(fields[:, None] / 900.0 + np.arange(3)) * 1.5
    values = np.sum(0.01 / (freqs[None, None, :] - centres[..., None] - 0.01j), axis=1)
    values += 1e-4 * rng.normal(size=values.shape)
    spectrum = SpectrumMap(fields, freqs, values)
    got = extract_ridges(spectrum, 3, 0.2)
    assert got.total() >= 3 * fields.size - 5
    assert same_ridges(got, oracle_ridges(spectrum, 3, 0.2))
