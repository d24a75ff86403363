"""The transmission kernel against the elimination it replaced.

core._transmission keeps frequency-constant entries unexpanded and
exchanges rows only where a point pivots; the arithmetic is meant to
stay that of the kernel that expanded every entry of M over the grid
and swapped whole rows at every point, kept here as
reference_transmission.  values, cond and every x[i] must agree bit for
bit on lossless, near-exceptional-point, row-exchanging and non-finite
stacks, with the kernel's own work array and with a reused larger one.
sort_eigenvalues is checked the same way against its per-row loop.
Hypothesis runs derandomized, so failures reproduce.
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cavmag.core import (
    _SCREEN_MARGIN,
    SINGULAR_COND_LIMIT,
    _cond_bound,
    _kernel_work,
    _transmission,
    build_coupling_hamiltonian,
    sort_eigenvalues,
    stripline_vector,
)
from test_exceptional_points import DELTAS, three_mode_ep, two_mode_ep

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)
BLOCK_PAST = 40  # grids run from one point to 40 fields and 40 frequencies


def reference_transmission(hams, weights, freqs):
    """The expand-and-swap elimination the kernel replaced."""
    n = hams.shape[-1]
    eye = np.eye(n)
    grid = (hams.shape[0], freqs.size)
    a = np.empty((n, n + 1) + grid, dtype=complex)
    a[:, n] = weights[:, None, None]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a[:, :n] = 1j * (eye[:, :, None, None] * freqs - hams.transpose(1, 2, 0)[..., None])
        for k in range(n - 1):
            parts = np.abs(a[k:, k].view(np.float64))
            pivot = np.argmax(parts[..., 0::2] + parts[..., 1::2], axis=0)
            for r in range(k + 1, n):
                swap = pivot == r - k
                row = a[k].copy()
                np.copyto(a[k], a[r], where=swap)
                np.copyto(a[r], row, where=swap)
            a[k + 1 :, k] /= a[k, k]
            a[k + 1 :, k + 1 :] -= a[k + 1 :, k, None] * a[k, None, k + 1 :]
        x = [None] * n
        for i in reversed(range(n)):
            acc = a[i, n]
            for j in range(i + 1, n):
                acc = acc - a[i, j] * x[j]
            x[i] = acc / a[i, i]
        values = weights[0] * x[0]
        for i in range(1, n):
            values = values + weights[i] * x[i]
        cond = _cond_bound(hams, freqs)
        suspect = ~(cond < SINGULAR_COND_LIMIT / _SCREEN_MARGIN)
        if np.any(suspect):
            fi, wi = np.nonzero(suspect)
            m = 1j * (freqs[wi, None, None] * eye - hams[fi])
            finite = np.all(np.isfinite(m), axis=(1, 2))
            exact = np.full(fi.size, np.inf)
            exact[finite] = np.linalg.cond(m[finite])
            cond[suspect] = exact
    return values, cond, x


def bits(array):
    return np.ascontiguousarray(array).view(np.uint64)


def assert_same_bits(got, want):
    (values, cond, x), (ref_values, ref_cond, ref_x) = got, want
    assert values.shape == ref_values.shape and len(x) == len(ref_x)
    assert np.array_equal(bits(values), bits(ref_values))
    assert np.array_equal(bits(cond), bits(ref_cond))
    for xi, ref_xi in zip(x, ref_x):
        assert xi.shape == ref_xi.shape
        assert np.array_equal(bits(xi), bits(ref_xi))


def check_kernel(hams, weights, freqs, spare_fields):
    want = reference_transmission(hams, weights, freqs)
    assert_same_bits(_transmission(hams, weights, freqs), want)
    # a sweep hands every block one work array sized for its largest block,
    # still holding the previous block's entries
    work = _kernel_work(hams.shape[-1], hams.shape[0] + spare_fields, freqs.size)
    for array in work:
        array[...] = complex(math.nan, -1.0)
    assert_same_bits(_transmission(hams, weights, freqs, work), want)


def symmetric(draw, n, entry):
    h = np.zeros((n, n), dtype=complex)
    for i in range(n):
        for j in range(i, n):
            h[i, j] = h[j, i] = draw(entry)
    return h


# Entries from a small pool of inexact values: exact ties in |re| + |im|
# are common (pivot choice matters), zeros on the diagonal force
# exchanges, and sums of pool values round.
POOL = [0.0, 0.1, 0.3, 1.0 / 3.0, 0.7, 1.0]
pooled = st.sampled_from(POOL + [-v for v in POOL[1:]])


@st.composite
def stacks(draw):
    """(hams, weights, freqs) of one of four kinds."""
    kind = draw(st.sampled_from(["lossless", "near_ep", "exchanges", "non_finite"]))
    fields = draw(st.integers(1, BLOCK_PAST))
    if kind == "near_ep":
        make = draw(st.sampled_from([two_mode_ep, three_mode_ep]))
        rates = st.floats(1e-3, 0.1)
        systems = [make(draw(st.floats(20.0, 40.0)), draw(rates), draw(rates), draw(rates),
                        draw(rates), draw(st.sampled_from(DELTAS))) for _ in range(fields)]
        hams = np.stack([build_coupling_hamiltonian(s) for s in systems])
        weights = stripline_vector(systems[0])
        centre = float(np.mean(hams[0].real.diagonal()))
        offsets = st.floats(-0.3, 0.3)
        freqs = np.array([centre + draw(offsets)
                          for _ in range(draw(st.integers(1, BLOCK_PAST)))])
        return hams, weights, freqs
    n = draw(st.integers(1, 4))
    if kind == "exchanges":
        hams = np.stack([symmetric(draw, n, pooled) - 1j * np.diag(
            [draw(st.sampled_from([0.0, 0.1, 1.0 / 3.0])) for _ in range(n)])
            for _ in range(fields)])
        weights = np.array([draw(st.sampled_from(POOL)) for _ in range(n)])
        freqs = np.array(draw(st.lists(st.sampled_from(POOL + [-0.0, -0.3, -1.0]),
                                       min_size=1, max_size=BLOCK_PAST)))
        return hams, weights, freqs
    real = st.floats(-2.0, 2.0)
    hams = np.stack([symmetric(draw, n, real) for _ in range(fields)])
    weights = np.array([draw(st.floats(0.0, 1.0)) for _ in range(n)])
    freqs = np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=BLOCK_PAST)))
    if kind == "non_finite":
        hams -= 1j * np.stack([np.diag([draw(st.floats(0.0, 0.1)) for _ in range(n)])
                               for _ in range(fields)])
        specials = st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -1e308])
        for _ in range(draw(st.integers(1, 3))):
            f, i, j = (draw(st.integers(0, s - 1)) for s in (fields, n, n))
            hams[f, i, j] = complex(draw(specials), draw(st.sampled_from([0.0, math.nan])))
        if draw(st.booleans()):
            freqs[draw(st.integers(0, freqs.size - 1))] = draw(specials)
        if draw(st.booleans()):
            weights[draw(st.integers(0, n - 1))] = draw(specials)
    return hams, weights, freqs


def pivot_stack(*columns, rest=(2.0, 0.3, 1.0)):
    """Three-mode fields whose first column (H_00, H_10, H_20) is given
    per field, and (H_11, H_21, H_22) by rest, probed at omega = 0.5 and
    1: the first pivot is chosen among sizes |re| + |im| of
    i (omega - H_00), i H_10 and i H_20.  A NaN entry makes a NaN size,
    and 1e308 + 1e308j an infinite one."""
    h11, h21, h22 = rest
    hams = np.array([[[h0, h1, h2], [h1, h11, h21], [h2, h21, h22]] for h0, h1, h2 in columns],
                    dtype=complex)
    return hams, np.ones(3), np.array([0.5, 1.0])


BIG = complex(1e308, 1e308)


@SETTINGS
@given(stack=stacks(), spare_fields=st.integers(0, 8))
@example(stack=(np.array([[[0.0, 1.0], [1.0, 0.0]]], dtype=complex), np.ones(2),
                np.array([0.0, 1.0, -1.0])), spare_fields=0)
# sizes 1, 1, 1 at omega = 1 (three-way tie), 0.5, 1, 1 at omega = 0.5
@example(stack=pivot_stack((0.0, 0.5 + 0.5j, -1.0)), spare_fields=0)
# a NaN in row 1 wins over a larger finite row 2
@example(stack=pivot_stack((0.0, math.nan, 5.0)), spare_fields=0)
# a NaN in row 0 wins over larger finite rows below it
@example(stack=pivot_stack((math.nan, 3.0, 4.0)), spare_fields=1)
# sizes 0.5, 0.7, 1 at omega = 0.5: row 2 alone is exchanged with row 0,
# and the next pivot then ties between the two rows left
@example(stack=pivot_stack((0.0, 0.7, 1.0), rest=(0.0, -1.0, 0.0)), spare_fields=0)
# inf against NaN, in either order and with inf in row 0
@example(stack=pivot_stack((0.0, BIG, math.nan), (0.0, math.nan, BIG), (BIG, math.nan, 1.0)),
         spare_fields=0)
def test_kernel_matches_reference_bit_for_bit(stack, spare_fields):
    check_kernel(*stack, spare_fields)


def test_kernel_matches_reference_on_an_empty_frequency_axis():
    hams = np.stack([np.array([[1.0, 0.3], [0.3, 2.0 - 0.1j]])] * 3)
    check_kernel(hams, np.ones(2), np.empty(0), 2)


parts = st.floats(-4.0, 4.0) | st.sampled_from([0.0, -0.0, 1.0, -1.0, math.nan, math.inf])


@SETTINGS
@given(rows=st.lists(st.lists(st.builds(complex, parts, parts), min_size=4, max_size=4),
                     min_size=1, max_size=60))
def test_sort_eigenvalues_sorts_a_stack_like_its_rows(rows):
    values = np.array(rows, dtype=complex)
    looped = np.array([row[np.lexsort((row.imag, row.real))] for row in values])
    assert np.array_equal(bits(sort_eigenvalues(values)), bits(looped))
