"""Invariants of the coefficient kernel, the occupation and the detector Gram
matrix, over drawn configurations.

Draws are derandomized and few, so the suite stays deterministic and fast.
"""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermisect.bogoliubov import (
    build_pair,
    coefficients,
    cutoff_indices,
    overlap_oracle,
    pair_to_csv,
    region_sign,
)
from fermisect.detector import DetectorMode, PhasePoint, gram_matrix
from fermisect.field import Branch, FieldConfig, Region, energy, subsection_momentum
from fermisect.spectrum import (
    converged_cutoff,
    correlation_matrix,
    occupation,
    occupation_spectrum,
    tail_sums,
)
from kernel_rows import coefficient_rows, pair_from_csv

N = 65
DRAWS = settings(max_examples=30, derandomize=True, deadline=None, database=None)

mu_ls = st.floats(0.01, 100.0)
half_lengths = st.floats(0.1, 10.0)
times = st.floats(-10.0, 10.0)
modes = st.integers(1, 20)


@DRAWS
@given(mu_l=mu_ls, half_length=half_lengths, time=times, k=modes)
def test_occupation_depends_on_mu_l_alone(mu_l, half_length, time, k):
    # time enters only through phases and L only through mu*L
    ref = occupation(k, FieldConfig.from_mu_l(mu_l), N)
    moved = occupation(k, FieldConfig.from_mu_l(mu_l, half_length=half_length, time=time), N)
    assert moved == pytest.approx(ref, rel=1e-12, abs=0.0)


@DRAWS
@given(mu_l=st.floats(0.0, 100.0), half_length=half_lengths, time=times, k_max=st.integers(1, 24))
def test_tail_corrected_sums_do_not_depend_on_the_cutoff(mu_l, half_length, time, k_max):
    # the closed-form tail makes the converged cutoff and a far larger one agree,
    # and |correlation| still depends on mu*L alone
    cfg = FieldConfig.from_mu_l(mu_l, half_length=half_length, time=time)
    n = converged_cutoff(k_max, cfg)
    spectrum = occupation_spectrum(k_max, cfg, n, tail=True)
    assert spectrum == pytest.approx(occupation_spectrum(k_max, cfg, 4097, tail=True),
                                     rel=1e-9, abs=0.0)
    corr = correlation_matrix(k_max, cfg, n, tail=True)
    assert np.max(np.abs(corr - correlation_matrix(k_max, cfg, 4097, tail=True))) <= 1e-11
    still = correlation_matrix(k_max, FieldConfig.from_mu_l(mu_l), n, tail=True)
    assert np.max(np.abs(np.abs(corr) - np.abs(still))) <= 1e-14


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
        alpha_tail, beta_tail = tail_sums(ks[:, None], ks[None, :], cfg, n_max)
        occupations = occupations + np.diag(beta_tail)
        beta_sum, alpha_sum = beta_sum - beta_tail * phase, alpha_sum - alpha_tail * phase.conj()
    return occupations, beta_sum * alpha_sum


@DRAWS
@given(mu_l=st.floats(0.01, 5.0), half_length=st.floats(0.5, 4.0),
       time=st.floats(-1.0, 1.0).filter(lambda t: t != 0.0), k_max=st.integers(1, 24),
       n=st.integers(1, 100), tail=st.booleans())
def test_real_contractions_equal_the_complex_rows(mu_l, half_length, time, k_max, n, tail):
    # the real odd-column sums times the pair phase are the contractions of the kernel's rows,
    # cutoffs below 2 * k_max (no matched column) and the converged cutoff's tail included.
    # The rows' phase arguments (eps_q + eps_j) * t round by about |arg| * 1e-16, so the draws
    # keep mu*t small: against 40 digits at mu*L = 35, t = 1, N = 23, k_max = 7 the rows are off
    # by 2.0e-13 of the largest entry and the real sums by 1.9e-14.
    cfg = FieldConfig.from_mu_l(mu_l, half_length=half_length, time=time)
    n = converged_cutoff(k_max, cfg) if tail else n
    occupations, corr = _row_contractions(k_max, cfg, n, tail)
    spectrum = occupation_spectrum(k_max, cfg, n, tail)
    assert spectrum == pytest.approx(occupations, rel=2e-15, abs=0.0)
    gap = np.max(np.abs(correlation_matrix(k_max, cfg, n, tail) - corr))
    assert gap <= 2e-13 * np.max(np.abs(corr))


@DRAWS
@given(mu_l=mu_ls, time=times, k=modes)
def test_occupation_is_a_filling_fraction(mu_l, time, k):
    assert 0.0 <= occupation(k, FieldConfig.from_mu_l(mu_l, time=time), N) <= 1.0


@DRAWS
@given(mu_l=mu_ls, time=times, m=st.integers(-20, 20))
def test_left_and_right_magnitudes_equal(mu_l, time, m):
    # the kernel's (left) magnitudes are those the oracle integrates on the right half
    cfg = FieldConfig.from_mu_l(mu_l, time=time)
    js = cutoff_indices(17)
    alpha, beta = coefficients(m, js, cfg)
    a_right = overlap_oracle(m, js, Region.RIGHT, (Branch.POSITIVE, Branch.POSITIVE), cfg)
    b_right = overlap_oracle(m, js, Region.RIGHT, (Branch.POSITIVE, Branch.NEGATIVE), cfg)
    assert np.all(np.abs(np.abs(alpha) - np.abs(a_right)) <= 1e-10)
    assert np.all(np.abs(np.abs(beta) - np.abs(b_right)) <= 1e-10)


def _bits(values):
    return [(v.real.hex(), v.imag.hex()) for v in map(complex, values)]


BRANCH_PAIRS = [(b1, b2) for b1 in Branch for b2 in Branch]


@DRAWS
@given(mu_l=mu_ls, time=times, m=st.integers(-10, 10),
       ks=st.lists(st.integers(-24, 24), min_size=1, max_size=12),
       region=st.sampled_from((Region.LEFT, Region.RIGHT)), branches=st.sampled_from(BRANCH_PAIRS),
       order=st.sampled_from((None, 96, 160)))
def test_oracle_row_equals_its_entries_bit_for_bit(mu_l, time, m, ks, region, branches, order):
    # one call per row groups the entries by order; each entry keeps its bits, signed zeros too
    cfg = FieldConfig.from_mu_l(mu_l, time=time)
    row = overlap_oracle(m, np.array(ks), region, branches, cfg, order=order)
    entries = [overlap_oracle(m, k, region, branches, cfg, order=order) for k in ks]
    assert row.shape == (len(ks),)
    assert _bits(row) == _bits(entries)


@DRAWS
@given(mu_l=st.floats(0.05, 20.0), time=st.floats(-2.0, 2.0),
       region=st.sampled_from((Region.LEFT, Region.RIGHT)), n=st.integers(1, 12))
def test_csv_round_trip_is_exact(mu_l, time, region, n):
    # the dump holds every nonzero entry of the kernel, bit for bit, and nothing else
    cfg = FieldConfig.from_mu_l(mu_l, time=time)
    buf = io.StringIO()
    pair_to_csv(build_pair(region, cfg, n), buf)
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
    gram = gram_matrix(DetectorMode(PhasePoint(sigma, x=x, p=p), level) for x, p, level in modes)
    assert np.all(np.diag(gram) == 1.0)
    assert np.min(np.linalg.eigvalsh(gram)) >= -1e-10
