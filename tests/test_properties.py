"""Invariants of the coefficient kernel, the occupation and the detector Gram
matrix, over drawn configurations.

Draws are derandomized and few, so the suite stays deterministic and fast.
"""

import io
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermisect.bogoliubov import (
    QuadratureUnresolved,
    cutoff_indices,
    iter_coefficients,
    overlap_oracle,
    pair_to_csv,
    region_sign,
)
from fermisect.detector import DetectorMode, PhasePoint, gram_matrices
from fermisect.field import Branch, FieldConfig, Region, energy, subsection_momentum
from fermisect.spectrum import (
    converged_cutoff,
    correlation_matrix,
    occupation_spectrum,
    tail_sums,
)
from kernel_rows import coefficient_rows, pair_from_csv
from oracle_reference import row_oracle

N = 65
DRAWS = settings(max_examples=30, derandomize=True, deadline=None, database=None)

mu_ls = st.floats(0.01, 100.0)
times = st.floats(-10.0, 10.0)
modes = st.integers(1, 20)


@DRAWS
@given(mu_l=st.floats(0.0, 100.0), k_max=st.integers(1, 24))
def test_tail_corrected_sums_do_not_depend_on_the_cutoff(mu_l, k_max):
    # the closed-form tail makes the converged cutoff and a far larger one agree
    n = converged_cutoff(k_max, mu_l)
    spectrum = occupation_spectrum(k_max, mu_l, n, tail=True)
    assert spectrum == pytest.approx(occupation_spectrum(k_max, mu_l, 4097, tail=True),
                                     rel=1e-9, abs=0.0)
    corr = correlation_matrix(k_max, mu_l, n, tail=True)
    assert np.max(np.abs(corr - correlation_matrix(k_max, mu_l, 4097, tail=True))) <= 1e-11


@pytest.mark.parametrize("n_max", [33, 65, 513, 4097])
def test_massless_tail_corrected_sums_are_exact_at_every_cutoff(n_max):
    # at mu*L = 0 the weights equal their limits, so raw sum plus tail is the whole sum at any
    # cutoff holding every matched column (N >= 2 k_max + 1).  Measured over the largest entry:
    # occupations 3.3e-16, correlations 9.3e-15 (N = 33) to 2.9e-15 (4097)
    occupations = occupation_spectrum(16, 0.0, n_max, tail=True)
    reference = occupation_spectrum(16, 0.0, 16385, tail=True)
    assert np.max(np.abs(occupations - reference)) <= 2e-14 * np.max(np.abs(reference))
    corr = correlation_matrix(16, 0.0, n_max, tail=True)
    reference = correlation_matrix(16, 0.0, 16385, tail=True)
    assert np.max(np.abs(corr - reference)) <= 2e-14 * np.max(np.abs(reference))


def _row_contractions(k_max, cfg, n_max, tail):
    """Occupations and correlation from the complex kernel rows, the right half by `region_sign`."""
    js, ks = cutoff_indices(n_max), np.arange(1, k_max + 1)
    alpha, beta = coefficient_rows(ks, js, cfg)
    sign = region_sign(js, Region.RIGHT)
    occupations = np.sum(np.abs(beta) ** 2, axis=1)
    beta_sum, alpha_sum = beta @ (beta * sign).conj().T, alpha @ (alpha * sign).conj().T
    if tail:
        eps = energy(subsection_momentum(ks, cfg), cfg.mass)
        phase = np.exp(-1j * (eps[:, None] - eps[None, :]) * cfg.time)
        alpha_tail, beta_tail = tail_sums(ks[:, None], ks[None, :], cfg.mass * cfg.half_length,
                                          n_max)
        occupations = occupations + np.diag(beta_tail)
        beta_sum, alpha_sum = beta_sum - beta_tail * phase, alpha_sum - alpha_tail * phase.conj()
    return occupations, beta_sum * alpha_sum


@DRAWS
@given(mu_l=st.floats(0.01, 5.0), half_length=st.floats(0.5, 4.0),
       time=st.floats(-1.0, 1.0).filter(lambda t: t != 0.0), k_max=st.integers(1, 24),
       n=st.integers(1, 100), tail=st.booleans())
def test_real_contractions_equal_the_complex_rows(mu_l, half_length, time, k_max, n, tail):
    # the real odd-column sums at L = 1, time 0 are the contractions of the kernel's rows at L and
    # t, whose pair phases cancel: cutoffs below 2 * k_max (no matched column) and the converged
    # cutoff's tail included.
    # The rows' phase arguments (eps_q + eps_j) * t round by about |arg| * 1e-16, so the draws
    # keep mu*t small: against 40 digits at mu*L = 35, t = 1, N = 23, k_max = 7 the rows are off
    # by 2.0e-13 of the largest entry and the real sums by 1.9e-14.
    cfg = FieldConfig(mass=mu_l / half_length, half_length=half_length, time=time)
    n = converged_cutoff(k_max, mu_l) if tail else n
    occupations, corr = _row_contractions(k_max, cfg, n, tail)
    spectrum = occupation_spectrum(k_max, mu_l, n, tail)
    assert spectrum == pytest.approx(occupations, rel=2e-15, abs=0.0)
    matrix = correlation_matrix(k_max, mu_l, n, tail)
    assert matrix.dtype == np.float64
    assert np.max(np.abs(matrix - corr)) <= 2e-13 * np.max(np.abs(corr))


@DRAWS
@given(mu_l=mu_ls, k=modes)
def test_occupation_is_a_filling_fraction(mu_l, k):
    assert 0.0 <= occupation_spectrum(k, mu_l, N)[k - 1] <= 1.0


@DRAWS
@given(mu_l=mu_ls, time=times, m=st.integers(-20, 20))
def test_left_and_right_magnitudes_equal(mu_l, time, m):
    # the kernel's (left) magnitudes are those the oracle integrates on the right half
    cfg = FieldConfig.from_mu_l(mu_l, time=time)
    js = cutoff_indices(17)
    alpha, beta = next(iter_coefficients((m,), js, cfg))
    a_right = overlap_oracle(m, js, Region.RIGHT, (Branch.POSITIVE, Branch.POSITIVE), cfg)
    b_right = overlap_oracle(m, js, Region.RIGHT, (Branch.POSITIVE, Branch.NEGATIVE), cfg)
    assert np.all(np.abs(np.abs(alpha) - np.abs(a_right)) <= 1e-10)
    assert np.all(np.abs(np.abs(beta) - np.abs(b_right)) <= 1e-10)


def _bits(values):
    return [(v.real.hex(), v.imag.hex()) for v in map(complex, values)]


BRANCH_PAIRS = [(b1, b2) for b1 in Branch for b2 in Branch]


def _call_order(ms, ks):
    """The default order of an oracle call: 8 nodes per wavelength of its fastest entry."""
    cycles = (2 * max(map(abs, ms)) + max(map(abs, ks))) / 2.0
    return max(64, 32 * math.ceil((8 * cycles + 16) / 32))


@DRAWS
@given(mu_l=mu_ls, time=times, m=st.integers(-10, 10),
       ks=st.lists(st.integers(-24, 24), min_size=1, max_size=12),
       region=st.sampled_from((Region.LEFT, Region.RIGHT)), branches=st.sampled_from(BRANCH_PAIRS),
       order=st.sampled_from((None, 96, 160)))
def test_oracle_row_equals_its_entries_bit_for_bit(mu_l, time, m, ks, region, branches, order):
    # one order serves the row; each entry called at it keeps its bits, signed zeros too
    cfg = FieldConfig.from_mu_l(mu_l, time=time)
    row = overlap_oracle(m, np.array(ks), region, branches, cfg, order=order)
    order = order or _call_order([m], ks)
    entries = [overlap_oracle(m, k, region, branches, cfg, order=order) for k in ks]
    assert row.shape == (len(ks),)
    assert _bits(row) == _bits(entries)


@DRAWS
@given(mu_l=mu_ls, time=times, ms=st.lists(st.integers(-10, 10), min_size=1, max_size=6),
       ks=st.lists(st.integers(-24, 24), min_size=1, max_size=12),
       region=st.sampled_from((Region.LEFT, Region.RIGHT)), branches=st.sampled_from(BRANCH_PAIRS),
       order=st.sampled_from((None, 96, 160)))
def test_oracle_block_equals_its_rows_bit_for_bit(mu_l, time, ms, ks, region, branches, order):
    # one order serves the block; each row called at it keeps its bits
    cfg = FieldConfig.from_mu_l(mu_l, time=time)
    args = (np.array(ks), region, branches, cfg)
    try:
        rows = [row_oracle(m, *args, order=order or _call_order(ms, ks)) for m in ms]
    except QuadratureUnresolved as exc:  # the block names the same first entry
        with pytest.raises(QuadratureUnresolved, match=re.escape(str(exc))):
            overlap_oracle(np.array(ms), *args, order=order)
        return
    block = overlap_oracle(np.array(ms), *args, order=order)
    assert block.shape == (len(ms), len(ks))
    assert [_bits(row) for row in block] == [_bits(row) for row in rows]


@DRAWS
@given(mu_l=st.floats(0.05, 20.0), time=st.floats(-2.0, 2.0),
       region=st.sampled_from((Region.LEFT, Region.RIGHT)), n=st.integers(1, 12))
def test_csv_round_trip_is_exact(mu_l, time, region, n):
    # the dump holds every nonzero entry of the kernel, bit for bit, and nothing else
    cfg = FieldConfig.from_mu_l(mu_l, time=time)
    buf = io.StringIO()
    pair_to_csv(region, buf, cfg, n)
    buf.seek(0)
    ks = cutoff_indices(n)
    sign = region_sign(ks, region)
    alpha, beta = (rows * sign for rows in coefficient_rows(ks, ks, cfg))
    nonzero = {(m, k): (complex(alpha[i, j]), complex(beta[i, j]))
               for i, m in enumerate(ks.tolist()) for j, k in enumerate(ks.tolist())
               if alpha[i, j] != 0 or beta[i, j] != 0}
    assert pair_from_csv(buf) == nonzero


@DRAWS
@given(sigma=st.floats(0.3, 2.0),
       modes=st.lists(st.tuples(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0), st.integers(0, 5)),
                      min_size=2, max_size=20))
def test_gram_matrix_is_positive_semidefinite(sigma, modes):
    # pairwise overlaps of normalized modes: unit diagonal, no negative eigenvalue
    gram = gram_matrices([(DetectorMode(PhasePoint(sigma, x=x, p=p), level)
                           for x, p, level in modes)])[0]
    assert np.all(np.diag(gram) == 1.0)
    assert np.min(np.linalg.eigvalsh(gram)) >= -1e-10
