import io
import math
import re
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import zeta

from fermisect import spectrum
from fermisect.bogoliubov import (
    SERIES_PREFACTOR,
    canonicity_residual,
    coeff_w,
    cutoff_indices,
    iter_coefficients,
    overlap_oracle,
    pair_to_csv,
    region_sign,
)
from fermisect.field import (
    Branch,
    FieldConfig,
    Region,
    section_momentum,
    spinor,
    subsection_momentum,
)
from fermisect.fock import QuasiOperator, expectations, random_canonical_transform
from fermisect.spectrum import (
    converged_cutoff,
    correlation_matrix,
    cross_correlation_from_rows,
    occupation_spectrum,
    tail_sums,
    write_correlation_csv,
    write_spectrum_csv,
)
from kernel_rows import (
    coefficient_rows,
    reference_correlation_csv,
    reference_correlation_matrix,
    reference_weight_sums,
)

CFG = FieldConfig(mass=1.0, half_length=1.0, time=0.0)
PP = (Branch.POSITIVE, Branch.POSITIVE)
PM = (Branch.POSITIVE, Branch.NEGATIVE)


# --- occupation --------------------------------------------------------------

def test_occupation_matches_fock_engine_on_truncated_rows():
    # window |j| <= 2 -> 5 particle + 5 antiparticle modes; the Fock
    # expectation of cdag c must equal the partial row sum exactly
    n_window = 2
    for k in (1, 2):
        alpha, beta = next(iter_coefficients((k,), np.arange(-n_window, n_window + 1), CFG))
        c = QuasiOperator(alpha=alpha, beta=beta)
        fock_val = expectations([c.adjoint, c])[0]
        row_sum = float(np.sum(np.abs(c.beta) ** 2))
        assert fock_val.real == pytest.approx(row_sum, rel=1e-12)
        assert abs(fock_val.imag) <= 1e-14


def test_occupation_regression_value():
    assert occupation_spectrum(1, 1.0, 1025)[0] == pytest.approx(0.9255953514567797, abs=1e-12)


def test_antiparticle_occupation_identical():
    # the antiparticle-side quasi-operator has alpha on the anti ladder and
    # -conj(beta) on particle creators; its vacuum occupation is the same
    # beta-row norm
    n_window = 2
    k = 1
    alpha, beta = next(iter_coefficients((k,), np.arange(-n_window, n_window + 1), CFG))
    # d = sum_j alpha[j] b_j - conj(beta[j]) adag_j is the adjoint of the quasi-operator
    # sum_j -beta[j] a_j + conj(alpha[j]) bdag_j
    d = QuasiOperator(alpha=-beta, beta=alpha).adjoint
    val = expectations([d.adjoint, d])[0]
    assert val.real == pytest.approx(float(np.sum(np.abs(beta) ** 2)), rel=1e-12)


def test_fermionic_bound():
    for mu_l in (0.1, 1.0, 10.0):
        spec = occupation_spectrum(24, mu_l, 1025)
        assert np.all(spec >= 0.0)
        assert np.all(spec <= 1.0)


def test_occupation_vanishes_deep_nonrelativistic():
    assert occupation_spectrum(1, 1e4, 513)[0] <= 1e-3


def test_overflowing_spinor_overlap_raises():
    # from mu*L about 1e77 on the overlap denominator leaves float64; 1e76 still has
    # the series value 4.284e-151, and 1e77 would print 1.974e-153 instead of 4.284e-153
    assert occupation_spectrum(1, 1e76, 9)[0] == pytest.approx(4.284e-151, rel=1e-3)
    for compute in (lambda mu_l: occupation_spectrum(1, mu_l, 9)[0],
                    lambda mu_l: correlation_matrix(2, mu_l, 9),
                    lambda mu_l: canonicity_residual(np.array([1]), 9,
                                                     FieldConfig.from_mu_l(mu_l))):
        with pytest.raises(ValueError, match="overflows float64"):
            compute(1e77)


def test_heavy_field_keeps_the_small_weight():
    # at mu*L = 1e76 the weight VV = p^2/(2 eps (eps+mu)) is about 1e-152, and the spectra keep it:
    # written as 1/2 - mu/(2 eps) it rounds to 0 and the occupation reads 3.352e-151.  The check
    # in test_overflowing_spinor_overlap_raises passes any value, through approx's default abs
    assert occupation_spectrum(1, 1e76, 9)[0] == pytest.approx(4.2840317518699e-151, rel=1e-12,
                                                               abs=0.0)
    corr = correlation_matrix(2, 1e76, 9)
    assert corr[0, 0].real == pytest.approx(-7.06827149e-154, rel=1e-8, abs=0.0)


def test_left_right_spectra_coincide():
    # the right-half occupation the oracle integrates equals the kernel's (left) one
    n = 17
    for k in (1, 3, 5):
        right = np.sum(np.abs(overlap_oracle(k, cutoff_indices(n), Region.RIGHT, PM, CFG)) ** 2)
        assert abs(occupation_spectrum(k, 1.0, n)[k - 1] - right) <= 1e-10


def test_truncation_cauchy_and_shrinking_increments():
    vals = [occupation_spectrum(2, 1.0, n)[1] for n in (64, 128, 256, 512, 1024)]
    increments = [abs(vals[i + 1] - vals[i]) for i in range(len(vals) - 1)]
    for i in range(len(increments) - 1):
        assert increments[i + 1] <= increments[i] / 2.0 * 1.05  # factor-2 shrink per doubling


def test_mu_l_ordering_near_origin():
    curves = {mu_l: occupation_spectrum(4, mu_l, 1025) for mu_l in (0.1, 1.0, 10.0)}
    for i in range(4):
        assert curves[0.1][i] > curves[1.0][i] > curves[10.0][i]


def test_occupation_input_validation():
    with pytest.raises(ValueError, match="k_max must be >= 1"):
        occupation_spectrum(0, 1.0, 65)
    # every function that takes mu*L validates it as FieldConfig.from_mu_l does; converged_cutoff
    # raised "cannot convert float NaN" at nan, and returned 513 at -1.0
    for bad, message in ((math.nan, "mass must be finite, got nan"),
                         (math.inf, "mass must be finite, got inf"),
                         (-1.0, "mass must be >= 0, got -1.0")):
        for compute in (lambda mu_l: occupation_spectrum(1, mu_l, 65),
                        lambda mu_l: correlation_matrix(1, mu_l, 65),
                        lambda mu_l: tail_sums(np.array([1]), np.array([1]), mu_l, 65),
                        lambda mu_l: converged_cutoff(4, mu_l)):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                compute(bad)
    # every truncated sum rejects a cutoff below 1; tail_sums gave a tail past -3 (0.4757...)
    for n_bad in (0, -3):
        for compute in (lambda n: occupation_spectrum(2, 1.0, n),
                        lambda n: correlation_matrix(2, 1.0, n),
                        lambda n: tail_sums(np.array([1]), np.array([1]), 1.0, n),
                        lambda n: pair_to_csv(Region.LEFT, io.StringIO(), CFG, n),
                        lambda n: canonicity_residual(np.array([0]), n, CFG)):
            with pytest.raises(ValueError, match=f"truncation must be >= 1, got {n_bad}"):
                compute(n_bad)


def test_occupation_refuses_a_non_integer_mode_count_or_cutoff():
    # (2.5, 1.0, 65) gave 3 entries, and (2, 1.0, 3.5, tail=True) joined the raw N = 3 sum to a
    # tail taken from x0 = 2.25, matching neither cutoff
    with pytest.raises(ValueError, match=r"^k_max must be an integer, got 2\.5$"):
        occupation_spectrum(2.5, 1.0, 65)
    with pytest.raises(ValueError, match=r"^n_max must be an integer, got 3\.5$"):
        occupation_spectrum(2, 1.0, 3.5, tail=True)
    held = occupation_spectrum(np.int64(2), 1.0, np.int64(65), tail=True)
    assert held.tolist() == occupation_spectrum(2, 1.0, 65, tail=True).tolist()


def test_correlation_refuses_a_non_integer_mode_count_or_cutoff():
    # (2.5, 1.0, 65) gave a 3x3 matrix
    with pytest.raises(ValueError, match=r"^k_max must be an integer, got 2\.5$"):
        correlation_matrix(2.5, 1.0, 65)
    with pytest.raises(ValueError, match=r"^n_max must be an integer, got 3\.5$"):
        correlation_matrix(2, 1.0, 3.5, tail=True)
    held = correlation_matrix(np.int64(2), 1.0, np.int64(65), tail=True)
    assert held.tolist() == correlation_matrix(2, 1.0, 65, tail=True).tolist()


def test_tail_sums_refuse_a_non_integer_cutoff():
    # a cutoff of 3.5 set x0 = 2.25, between the tails of N = 3 and N = 4
    one = np.array([1])
    with pytest.raises(ValueError, match=r"^n_max must be an integer, got 3\.5$"):
        tail_sums(one, one, 1.0, 3.5)
    held = tail_sums(one, one, 1.0, np.int64(65))
    assert [t.tolist() for t in held] == [t.tolist() for t in tail_sums(one, one, 1.0, 65)]


def test_tail_sums_refuse_a_mode_below_one():
    # entry n - 1 of a cumulative table is read for mode n: mode 0 read entry -1, and the
    # digamma form divided by 0 to nan
    one = np.array([1])
    for bad in (0, -2):
        with pytest.raises(ValueError, match=f"^modes must be >= 1, got {bad}$"):
            tail_sums(np.array([bad]), one, 1.0, 65)
        with pytest.raises(ValueError, match=f"^modes must be >= 1, got {bad}$"):
            tail_sums(one, np.array([1, bad]), 1.0, 65)
    none, ks = np.arange(1, 1), np.arange(1, 4)
    for k, m, shape in ((none, none, (0,)), (none[:, None], ks[None, :], (0, 3)),
                        (ks[:, None], none[None, :], (3, 0))):
        assert [t.shape for t in tail_sums(k, m, 1.0, 65)] == [shape, shape]


def test_tail_sums_refuse_a_mode_array_that_is_not_of_integers():
    # mode n reads entry n - 1 of a cumulative table, so a float mode array raised numpy's
    # IndexError
    one = np.array([1])
    for bad in (np.array([1.0]), np.array([1.5]), np.array([1 + 0j]), np.array([], float)):
        message = f"^modes must be integers, got an array of {bad.dtype}$"
        with pytest.raises(ValueError, match=message):
            tail_sums(bad, one, 1.0, 65)
        with pytest.raises(ValueError, match=message):
            tail_sums(one, bad, 1.0, 65)
    assert [t.tobytes() for t in tail_sums(np.array([1], np.uint8), one, 1.0, 65)] == \
        [t.tobytes() for t in tail_sums(one, one, 1.0, 65)]


def test_trigamma_equals_scipy_zeta():
    # at x0 of every cutoff 1 .. 16385; scipy.special is the independent reference.  Measured
    # worst relative gap 5.8e-16 (at 112.5, where scipy's own value is 4.6e-16 off a 30-digit one
    # and this form's 1.2e-16)
    x0 = np.arange(1.5, 8194.0)
    got = np.array([spectrum._trigamma(x) for x in x0.tolist()])
    assert np.max(np.abs(got - zeta(2.0, x0)) / zeta(2.0, x0)) <= 6e-16


def _mp_tail_sums(ks, mu_l, n_max):
    """`tail_sums` over ``ks[:, None], ks[None, :]`` from 40-digit digammas and trigammas.

    The same closed forms, `_odd_sums` included, in mpmath on object arrays; only the spinor
    components and the prefactor enter as their float64 values.
    """
    cfg = FieldConfig.from_mu_l(mu_l)
    with mpmath.workdps(40):
        x0 = mpmath.mpf(n_max + 1 + n_max % 2) / 2
        c, psi0 = mpmath.mpf(cfg.mass) / (4 * mpmath.pi), mpmath.digamma(x0)
        t, s = [], []
        for n in ks.tolist():
            psi = [mpmath.digamma(x0 + a) for a in (n, -n)]
            tri = [mpmath.psi(1, x0 + a) for a in (n, -n)]
            g = [(psi[0] - psi0) / n, (psi[1] - psi0) / -n]
            t_mu = c * (g[0] - g[1])
            s_mu = c * ((g[0] - tri[0]) / n - (g[1] - tri[1]) / n)
            t.append(((psi[1] - psi[0]) / 2 + t_mu, -(psi[0] + psi[1]) / 2,
                      (psi[1] - psi[0]) / 2 - t_mu))
            s.append(((tri[0] + tri[1]) / 2 + s_mu, (tri[0] - tri[1]) / 2,
                      (tri[0] + tri[1]) / 2 - s_mu))
        t, s = np.array(t, dtype=object).T, np.array(s, dtype=object).T
        same = np.eye(len(ks), dtype=bool)
        gap = np.where(same, 1, ks[None, :] - ks[:, None])
        pair = [np.where(same, s[x][:, None], (t[x][:, None] - t[x][None, :]) / gap)
                for x in range(3)]
        u = spinor(subsection_momentum(ks, cfg), cfg.mass, Branch.POSITIVE)
        upper, lower = (np.array([mpmath.mpf(v) for v in w.tolist()], dtype=object)
                        for w in (u.upper, u.lower))
        coeff = (lower[:, None] * lower[None, :],
                 -(upper[:, None] * lower[None, :] + lower[:, None] * upper[None, :]),
                 upper[:, None] * upper[None, :])
        kappa2 = mpmath.mpf(SERIES_PREFACTOR) ** 2
        alpha = kappa2 * (coeff[0] * pair[2] + coeff[1] * pair[1] + coeff[2] * pair[0])
        beta = kappa2 * (coeff[0] * pair[0] + coeff[1] * pair[1] + coeff[2] * pair[2])
    return alpha.astype(float), beta.astype(float)


@pytest.mark.parametrize("n_max", [1, 9, 513, 16385])
def test_tail_sums_equal_a_40_digit_evaluation(n_max):
    # N = 1 and 9 reach arguments below 0.  Measured worst gaps over the largest entry, at any
    # mu*L: 4.5e-16 (N = 1), 5.6e-16 (9), 8.9e-15 (513) and 1.4e-14 (16385), from the cumulative
    # sums over 64 modes.  scipy's digamma cannot be the reference: its differences
    # psi(x0 +- k) - psi(x0) cancel, to 3.5e-13 at N = 513 and 8.3e-10 at 16385, mu*L = 512
    bound = {1: 1e-15, 9: 1e-15, 513: 1e-14, 16385: 1.5e-14}[n_max]
    ks = np.arange(1, 65)
    for mu_l in (0.0, 1.0, 10.0, 512.0):
        got = tail_sums(ks[:, None], ks[None, :], mu_l, n_max)
        for g, w in zip(got, _mp_tail_sums(ks, mu_l, n_max)):
            assert np.max(np.abs(g - w)) <= bound * np.max(np.abs(w))


def test_converged_cutoff_refuses_a_non_integer_mode_count():
    # 200.5 raised TypeError from the final "| 1"
    with pytest.raises(ValueError, match=r"^k_max must be an integer, got 200\.5$"):
        converged_cutoff(200.5, 1.0)
    assert converged_cutoff(np.int64(200), 1.0) == converged_cutoff(200, 1.0) == 801


# --- cross correlation -------------------------------------------------------

def test_contraction_matches_fock_four_point_synthetic():
    # 2+2-mode synthetic canonical matrices against the explicit expectation
    ops = random_canonical_transform(2, seed=11)
    c, f = ops
    four = expectations([c.adjoint, c, f.adjoint, f])[0]
    singles = expectations([c.adjoint, c])[0] * expectations([f.adjoint, f])[0]
    wick = cross_correlation_from_rows(c.alpha, c.beta, f.alpha, f.beta)
    assert abs((four - singles) - wick) <= 1e-12


def test_contraction_two_mode_hand_value():
    # single-pair mixing rows: c mixes mode 0, f mixes mode 1 -> no shared
    # support, so the connected correlation vanishes; sharing mode 0 gives
    # the product of the overlaps by hand
    c_alpha, c_beta = np.array([0.8, 0.0]), np.array([0.6, 0.0])
    f_alpha, f_beta = np.array([0.0, 0.8], dtype=complex), np.array([0.0, 0.6j])
    assert cross_correlation_from_rows(c_alpha, c_beta, f_alpha, f_beta) == 0
    g_alpha, g_beta = np.array([0.8j, 0.0]), np.array([0.6, 0.0])
    hand = (0.6 * np.conj(0.6)) * (0.8 * np.conj(0.8j))
    assert cross_correlation_from_rows(c_alpha, c_beta, g_alpha, g_beta) == pytest.approx(hand)


def test_cross_correlation_hermitian_structure():
    mat = correlation_matrix(6, 1.0, 257)
    assert np.allclose(mat, mat.conj().T, atol=1e-14)


def test_cross_correlation_diagonal_real_positive():
    mat = correlation_matrix(8, 1.0, 513)
    assert mat.dtype == np.float64
    assert np.all(np.diag(mat) > 0)


def test_spectrum_monotone_increasing_toward_saturation():
    for mu_l in (0.1, 1.0):
        values = occupation_spectrum(24, mu_l, 1025)
        assert np.all(np.diff(values) > 0)


def test_correlation_matrix_matches_scalar_entries():
    # each entry against the scalar contraction of one left and one right row
    mat = correlation_matrix(4, 1.0, 129)
    js = np.arange(-129, 130)
    sign = region_sign(js, Region.RIGHT)
    for k in (1, 3):
        for m in (2, 4):
            alpha, beta = coefficient_rows((k, m), js, CFG)
            scalar = cross_correlation_from_rows(alpha[0], beta[0], alpha[1] * sign, beta[1] * sign)
            assert mat[k - 1, m - 1] == pytest.approx(scalar)


def test_correlation_matrix_matches_oracle_rows():
    # every entry against the contraction of left and right rows integrated by the oracle
    cfg = FieldConfig.from_mu_l(2.0, time=0.3)
    mat = correlation_matrix(3, 2.0, 7)
    js = cutoff_indices(7)

    modes = np.array([1, 2, 3])
    (a_left, b_left), (a_right, b_right) = (
        (overlap_oracle(modes, js, region, PP, cfg), overlap_oracle(modes, js, region, PM, cfg))
        for region in (Region.LEFT, Region.RIGHT))
    for k in (1, 2, 3):
        for m in (1, 2, 3):
            oracle = cross_correlation_from_rows(a_left[k - 1], b_left[k - 1],
                                                 a_right[m - 1], b_right[m - 1])
            assert abs(mat[k - 1, m - 1] - oracle) <= 1e-10


def _peak_bytes(contraction, *args, **kwargs):
    tracemalloc.start()
    try:
        contraction(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_correlation_evaluates_each_row_once():
    # one (16, 32771) complex row block is 8.39 MB, and left and right rows stacked apart peaked
    # at 5; the contraction builds no row, and its weight sums peak at check_domain's 0.94 MB
    block = 16 * 32771 * 16
    assert _peak_bytes(correlation_matrix, 16, 1.0, 16385) < 4.5 * block


def test_correlation_holds_two_real_odd_blocks():
    # four real (16, 16386) odd-column blocks, 8.39 MB, are one complex row block; the complex-row
    # contraction peaked at 34.1 MB, and the weight sums, one mode per block here, at 0.94 MB
    block = 16 * 16386 * 8
    assert _peak_bytes(correlation_matrix, 16, 1.0, 16385) < 4 * block


def test_occupation_streams_its_modes():
    # one dense (128, 8193) float64 block over the odd columns is 8.39 MB, and dense weight
    # blocks read 52 MB; the weight sums, one mode per block at this cutoff, peak at 0.94 MB
    assert _peak_bytes(occupation_spectrum, 128, 1.0, 16385) < 128 * 8193 * 8


def test_occupation_sums_its_modes_in_bounded_blocks():
    # all 128 modes in one block would hold (3, 128, 1026) float64 temporaries, over the bound
    # of a whole (3, 128, 513) block; one reused (3, 7, 1026) buffer leaves about 0.37 MB
    assert _peak_bytes(occupation_spectrum, 128, 1.0, 1025) < 3 * 128 * 513 * 8


@pytest.mark.parametrize("contraction,args", [(occupation_spectrum, (128, 1.0, 16385)),
                                              (correlation_matrix, (16, 1.0, 16385))])
def test_weight_sums_reuse_one_block_buffer(contraction, args):
    # a fresh (3, modes, columns) temporary per block, stacked weights and a full cutoff_indices
    # mask peaked at 1.98 MB; one reused buffer and in-place weights leave check_domain's 0.94 MB
    assert _peak_bytes(contraction, *args) < 1.5e6


def test_correlation_forms_its_rows_in_blocks():
    # the output is 8.39 MB; whole (3, 1024, 1024) temporaries of the odd and tail sums peaked
    # at 93.6 MB, and (8, 1024) row blocks leave about 1.2 MB beside the output
    assert _peak_bytes(correlation_matrix, 1024, 1.0, 4097, tail=True) < 12e6


def _assert_weight_sums_equal_the_per_mode_loop(k_max, mu_l, n_max):
    ks = np.arange(1, k_max + 1)
    cfg = FieldConfig.from_mu_l(mu_l)
    for got, want in zip(spectrum._weight_sums(ks, cfg, n_max),
                         reference_weight_sums(ks, cfg, n_max)):
        assert got.shape == (3, k_max)
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("n_max", [1, 3, 9, 513, 1025, 4097, 16385])
def test_weight_sums_equal_the_per_mode_loop_bit_for_bit(n_max):
    # k_max 7, 128 and 200 leave a partial last block at the larger cutoffs
    for k_max in (1, 2, 7, 16, 128, 200):
        for mu_l in (0.0, 1e-320, 0.1, 1.0, 10.0, 512.0):
            _assert_weight_sums_equal_the_per_mode_loop(k_max, mu_l, n_max)


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(k_max=st.integers(1, 300), mu_l=st.floats(0.0, 512.0), n_max=st.integers(1, 20000))
def test_weight_sums_equal_the_per_mode_loop_on_draws(k_max, mu_l, n_max):
    _assert_weight_sums_equal_the_per_mode_loop(k_max, mu_l, n_max)


def _assert_correlation_equals_the_one_shot_body(k_max, mu_l, n_max, tail):
    got = correlation_matrix(k_max, mu_l, n_max, tail)
    want = reference_correlation_matrix(k_max, mu_l, n_max, tail)
    assert got.shape == (k_max, k_max)
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("n_max", [1, 3, 9, 513, 1025, 4097])
def test_correlation_equals_the_one_shot_body_bit_for_bit(n_max):
    # 8193 // k_max rows a block: k_max 100, 129 and 300 leave a partial last block, 65 has one
    for k_max in (1, 2, 65, 100, 128, 129, 200, 300):
        for mu_l in (0.0, 1e-320, 0.1, 1.0, 10.0, 512.0):
            for tail in (False, True):
                _assert_correlation_equals_the_one_shot_body(k_max, mu_l, n_max, tail)


@settings(max_examples=25, derandomize=True, deadline=None, database=None)
@given(k_max=st.integers(1, 400), mu_l=st.floats(0.0, 512.0), n_max=st.integers(1, 5000),
       tail=st.booleans())
def test_correlation_equals_the_one_shot_body_on_draws(k_max, mu_l, n_max, tail):
    _assert_correlation_equals_the_one_shot_body(k_max, mu_l, n_max, tail)


def test_occupation_calls_coeff_w_once(monkeypatch):
    calls = []

    def counted(m, cfg):
        calls.append(np.size(m))
        return coeff_w(m, cfg)

    monkeypatch.setattr(spectrum, "coeff_w", counted)
    occupation_spectrum(128, 1.0, 1025)
    assert calls == [128]


def _longdouble_sums(k_max, cfg, n_max):
    """Raw occupations and correlation matrix at cutoff ``n_max`` in ``np.longdouble``.

    Written from the closed forms, starting from the same float64 momenta, so the gap to the
    float64 contractions is their rounding alone.
    """
    ld = np.longdouble
    js = cutoff_indices(n_max)
    j, ks = js[js % 2 != 0], np.arange(1, k_max + 1)
    mu = ld(cfg.mass)
    p = section_momentum(j, cfg).astype(ld)
    q = subsection_momentum(ks, cfg).astype(ld)[:, None]
    eps_p, eps_q = np.sqrt(p * p + mu * mu), np.sqrt(q * q + mu * mu)
    d = 2 * np.sqrt(eps_p * eps_q * (eps_p + mu) * (eps_q + mu))
    plus = ((eps_p + mu) * (eps_q + mu) + p * q) / d / ((j - 2 * ks[:, None]) / ld(2))
    cross = (p * (eps_q + mu) - q * (eps_p + mu)) / d / ((j + 2 * ks[:, None]) / ld(2))
    kappa2 = ld(SERIES_PREFACTOR) ** 2
    matched = 2 * ks <= n_max
    w2 = np.where(matched, (q * q / (2 * eps_q * eps_q))[:, 0], ld(0))
    alpha_odd, beta_odd = kappa2 * (plus @ plus.T), kappa2 * (cross @ cross.T)
    phase = np.exp(-1j * (eps_q - eps_q.T) * ld(cfg.time))
    correlation = ((np.diag(w2) - phase * beta_odd)
                   * (np.diag(np.where(matched, ld(0.5), ld(0))) - phase.conj() * alpha_odd))
    return w2 + np.diag(beta_odd), correlation


@pytest.mark.parametrize("mu_l,k_max,n_max",
                         [(0.1, 128, 1025), (10.0, 128, 1025), (1.0, 16, 16385)])
def test_contractions_round_like_the_exact_sums(mu_l, k_max, n_max):
    # measured: occupations 5.4e-16, diagonals 9.1e-13, off-diagonal entries 2.8e-15 of the
    # largest.  The diagonals cancel the matched terms, so a GEMM-summed diagonal reached
    # 2.4e-12; off the diagonal the weight sums meet as differences (T(k) - T(m))/(m - k)
    cfg = FieldConfig.from_mu_l(mu_l, time=0.3)
    occupations, exact = _longdouble_sums(k_max, cfg, n_max)
    spectrum = occupation_spectrum(k_max, mu_l, n_max)
    assert np.max(np.abs(spectrum - occupations) / occupations) <= 1e-15
    corr = correlation_matrix(k_max, mu_l, n_max)
    diagonals = np.diag(exact)
    assert np.max(np.abs(np.diag(corr) - diagonals) / np.abs(diagonals)) <= 2e-12
    off = ~np.eye(k_max, dtype=bool)
    assert np.max(np.abs(corr - exact)[off]) <= 4e-15 * np.max(np.abs(exact))


def test_near_diagonality_ratio_snapshot():
    # measured ratio recorded for regression; the advertised <= 10% diagonal
    # dominance does not hold for the full coefficient rows (see README)
    mat = correlation_matrix(16, 1.0, n_max=1025)
    diag = np.abs(np.diag(mat))
    off = np.abs(mat[~np.eye(16, dtype=bool)])
    ratio = float(np.median(off) / np.median(diag))
    assert ratio == pytest.approx(1.2013397536004207, abs=1e-6)


# --- plumbing ----------------------------------------------------------------

def test_converged_cutoff_rule():
    # smallest odd N >= max(513, 4*k_max + 1, 32*mu*L), up to 16385 from either term
    assert converged_cutoff(128, 10.0) == 513
    assert converged_cutoff(200, 1.0) == 801
    assert converged_cutoff(4096, 1.0) == 16385
    for k_max in (4097, 5000):
        with pytest.raises(ValueError, match="pass --truncation N$"):
            converged_cutoff(k_max, 1.0)
    assert converged_cutoff(16, 100.0) == 3201
    assert converged_cutoff(16, 100.01) == 3201
    assert converged_cutoff(16, 512.0) == 16385
    for mu_l in (512.5, 1e308):
        with pytest.raises(ValueError, match="--truncation"):
            converged_cutoff(16, mu_l)


def test_spectrum_csv_format():
    spectra = {mu_l: occupation_spectrum(3, mu_l, 65) for mu_l in (0.1, 1.0)}
    buf = io.StringIO()
    write_spectrum_csv(buf, spectra, 65)
    lines = buf.getvalue().splitlines()
    assert lines[0].startswith("#")
    assert lines[1] == "k,n_muL_0.1,n_muL_1.0"
    assert len(lines) == 5
    k, v1, v2 = lines[2].split(",")
    assert k == "1" and 0 < float(v1) < 1 and 0 < float(v2) < 1


def test_spectrum_header_is_the_configuration_of_the_smallest_mu_l():
    # the header derives from the table it heads, as `spectrum --mu-l=2,0.5 --truncation 65` prints
    spectra = {mu_l: occupation_spectrum(3, mu_l, 65) for mu_l in (2.0, 0.5)}
    buf = io.StringIO()
    write_spectrum_csv(buf, spectra, 65)
    assert buf.getvalue().splitlines()[:2] == [
        "# mass=0.5 half_length=1.0 time=0.0 truncation=65 mu_l_values=0.5,2.0",
        "k,n_muL_0.5,n_muL_2.0"]


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(k_max=st.integers(1, 40), seed=st.integers(0, 2**32 - 1), tail=st.booleans())
def test_correlation_csv_equals_the_per_entry_writer(k_max, seed, tail):
    # real cells, half from the edges (signed zeros, subnormals, +-1e308), half over every exponent
    rng = np.random.default_rng(seed)
    edges = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1.5e-310, 1e308, -1e308, 0.5])
    shape = (k_max, k_max)
    entries = np.where(rng.random(shape) < 0.5, rng.choice(edges, shape),
                       np.ldexp(rng.standard_normal(shape), rng.integers(-1074, 1020, shape)))
    got, want = io.StringIO(), io.StringIO()
    write_correlation_csv(got, entries, 1.0, 65, tail)
    reference_correlation_csv(want, entries, CFG, 65, tail)
    assert got.getvalue() == want.getvalue()


def test_correlation_csv_format():
    buf = io.StringIO()
    write_correlation_csv(buf, correlation_matrix(2, 1.0, 65), 1.0, 65)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "# mass=1.0 half_length=1.0 time=0.0 truncation=65"
    assert lines[1] == "k,m,re_d,im_d"
    assert len(lines) == 6
