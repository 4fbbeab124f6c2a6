import io
import math
import tracemalloc

import numpy as np
import pytest

from fermisect.bogoliubov import (
    SERIES_PREFACTOR,
    build_pair,
    canonicity_residual,
    coefficients,
    cutoff_indices,
    overlap_oracle,
    region_sign,
)
from fermisect.field import Branch, FieldConfig, Region, section_momentum, subsection_momentum
from fermisect.fock import QuasiOperator, build_space, random_canonical_transform, vacuum_expectation
from fermisect.spectrum import (
    converged_cutoff,
    correlation_matrix,
    cross_correlation_from_rows,
    occupation,
    occupation_spectrum,
    write_correlation_csv,
    write_spectrum_csv,
)

CFG = FieldConfig(mass=1.0, half_length=1.0, time=0.0)
PP = (Branch.POSITIVE, Branch.POSITIVE)
PM = (Branch.POSITIVE, Branch.NEGATIVE)


# --- occupation --------------------------------------------------------------

def test_occupation_matches_fock_engine_on_truncated_rows():
    # window |j| <= 2 -> 5 particle + 5 antiparticle modes; the Fock
    # expectation of cdag c must equal the partial row sum exactly
    n_window = 2
    space = build_space(2 * n_window + 1, 2 * n_window + 1)
    for k in (1, 2):
        alpha, beta = coefficients(k, np.arange(-n_window, n_window + 1), CFG)
        c = QuasiOperator(alpha=alpha, beta=beta)
        fock_val = vacuum_expectation(space, [c.dagger_matrix(space), c.matrix(space)])
        row_sum = float(np.sum(np.abs(c.beta) ** 2))
        assert fock_val.real == pytest.approx(row_sum, rel=1e-12)
        assert abs(fock_val.imag) <= 1e-14


def test_occupation_regression_value():
    assert occupation(1, CFG, 1025) == pytest.approx(0.9255953514567797, abs=1e-12)


def test_antiparticle_occupation_identical():
    # the antiparticle-side quasi-operator has alpha on the anti ladder and
    # -conj(beta) on particle creators; its vacuum occupation is the same
    # beta-row norm
    n_window = 2
    space = build_space(2 * n_window + 1, 2 * n_window + 1)
    k = 1
    alpha, beta = coefficients(k, np.arange(-n_window, n_window + 1), CFG)
    d_mat = None
    for j in range(2 * n_window + 1):
        term = alpha[j] * space.annihilate_anti(j) - np.conj(beta[j]) * space.create_particle[j]
        d_mat = term if d_mat is None else d_mat + term
    val = vacuum_expectation(space, [d_mat.conj().T, d_mat])
    assert val.real == pytest.approx(float(np.sum(np.abs(beta) ** 2)), rel=1e-12)


def test_fermionic_bound():
    for mu_l in (0.1, 1.0, 10.0):
        cfg = FieldConfig.from_mu_l(mu_l)
        spec = occupation_spectrum(24, cfg, 1025)
        assert np.all(spec >= 0.0)
        assert np.all(spec <= 1.0)


def test_occupation_vanishes_deep_nonrelativistic():
    cfg = FieldConfig.from_mu_l(1e4)
    assert occupation(1, cfg, 513) <= 1e-3


def test_overflowing_spinor_overlap_raises():
    # from mu*L about 1e77 on the overlap denominator leaves float64; 1e76 still has
    # the series value 4.284e-151, and 1e77 would print 1.974e-153 instead of 4.284e-153
    assert occupation(1, FieldConfig.from_mu_l(1e76), 9) == pytest.approx(4.284e-151, rel=1e-3)
    for compute in (lambda cfg: occupation(1, cfg, 9),
                    lambda cfg: correlation_matrix(2, cfg, 9),
                    lambda cfg: canonicity_residual(1, 9, cfg)):
        with pytest.raises(ValueError, match="overflows float64"):
            compute(FieldConfig.from_mu_l(1e77))


def test_heavy_field_keeps_the_small_weight():
    # at mu*L = 1e76 the weight VV = p^2/(2 eps (eps+mu)) is about 1e-152, and the spectra keep it:
    # written as 1/2 - mu/(2 eps) it rounds to 0 and the occupation reads 3.352e-151.  The check
    # in test_overflowing_spinor_overlap_raises passes any value, through approx's default abs
    cfg = FieldConfig.from_mu_l(1e76)
    assert occupation(1, cfg, 9) == pytest.approx(4.2840317518699e-151, rel=1e-12, abs=0.0)
    corr = correlation_matrix(2, cfg, 9)
    assert corr[0, 0].real == pytest.approx(-7.06827149e-154, rel=1e-8, abs=0.0)


def test_left_right_spectra_coincide():
    # the right-half occupation the oracle integrates equals the kernel's (left) one
    n = 17
    for k in (1, 3, 5):
        right = np.sum(np.abs(overlap_oracle(k, cutoff_indices(n), Region.RIGHT, PM, CFG)) ** 2)
        assert abs(occupation(k, CFG, n) - right) <= 1e-10


def test_truncation_cauchy_and_shrinking_increments():
    vals = [occupation(2, CFG, n) for n in (64, 128, 256, 512, 1024)]
    increments = [abs(vals[i + 1] - vals[i]) for i in range(len(vals) - 1)]
    for i in range(len(increments) - 1):
        assert increments[i + 1] <= increments[i] / 2.0 * 1.05  # factor-2 shrink per doubling


def test_mu_l_ordering_near_origin():
    curves = {
        mu_l: occupation_spectrum(4, FieldConfig.from_mu_l(mu_l), 1025)
        for mu_l in (0.1, 1.0, 10.0)
    }
    for i in range(4):
        assert curves[0.1][i] > curves[1.0][i] > curves[10.0][i]


def test_occupation_input_validation():
    with pytest.raises(ValueError):
        occupation(0, CFG, 65)
    with pytest.raises(ValueError):
        occupation_spectrum(0, CFG, 65)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            occupation(1, FieldConfig.from_mu_l(bad), 65)
        with pytest.raises(ValueError, match="finite"):
            occupation(1, FieldConfig.from_mu_l(1.0, time=bad), 65)
    # every truncated sum rejects a cutoff below 1
    for n_bad in (0, -3):
        for compute in (lambda n: occupation(1, CFG, n),
                        lambda n: occupation_spectrum(2, CFG, n),
                        lambda n: correlation_matrix(2, CFG, n),
                        lambda n: build_pair(Region.LEFT, CFG, n),
                        lambda n: canonicity_residual(0, n, CFG)):
            with pytest.raises(ValueError, match=f"truncation must be >= 1, got {n_bad}"):
                compute(n_bad)


# --- cross correlation -------------------------------------------------------

def test_contraction_matches_fock_four_point_synthetic():
    # 2+2-mode synthetic canonical matrices against the explicit expectation
    ops = random_canonical_transform(2, seed=11)
    c, f = ops
    space = build_space(2, 2)
    c_mat, f_mat = c.matrix(space), f.matrix(space)
    four = vacuum_expectation(space, [c_mat.conj().T, c_mat, f_mat.conj().T, f_mat])
    singles = (vacuum_expectation(space, [c_mat.conj().T, c_mat])
               * vacuum_expectation(space, [f_mat.conj().T, f_mat]))
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
    mat = correlation_matrix(6, CFG, 257)
    assert np.allclose(mat, mat.conj().T, atol=1e-14)


def test_cross_correlation_diagonal_real_positive():
    mat = correlation_matrix(8, CFG, 513)
    diag = np.diag(mat)
    assert np.max(np.abs(np.imag(diag))) <= 1e-12
    assert np.all(np.real(diag) > 0)


def test_spectrum_monotone_increasing_toward_saturation():
    for mu_l in (0.1, 1.0):
        values = occupation_spectrum(24, FieldConfig.from_mu_l(mu_l), 1025)
        assert np.all(np.diff(values) > 0)


def test_correlation_matrix_matches_scalar_entries():
    # each entry against the scalar contraction of one left and one right row
    mat = correlation_matrix(4, CFG, 129)
    js = np.arange(-129, 130)
    sign = region_sign(js, Region.RIGHT)
    for k in (1, 3):
        for m in (2, 4):
            scalar = cross_correlation_from_rows(*coefficients(k, js, CFG),
                                                 *(row * sign for row in coefficients(m, js, CFG)))
            assert mat[k - 1, m - 1] == pytest.approx(scalar)


def test_correlation_matrix_matches_oracle_rows():
    # every entry against the contraction of left and right rows integrated by the oracle
    cfg = FieldConfig.from_mu_l(2.0, time=0.3)
    mat = correlation_matrix(3, cfg, 7)
    js = cutoff_indices(7)

    def oracle_rows(k, region):
        return overlap_oracle(k, js, region, PP, cfg), overlap_oracle(k, js, region, PM, cfg)

    for k in (1, 2, 3):
        for m in (1, 2, 3):
            oracle = cross_correlation_from_rows(*oracle_rows(k, Region.LEFT),
                                                 *oracle_rows(m, Region.RIGHT))
            assert abs(mat[k - 1, m - 1] - oracle) <= 1e-10


def test_correlation_evaluates_each_row_once():
    # one (16, 32771) complex block is 8.39 MB; left and right rows stacked apart peak at 5
    block = 16 * 32771 * 16
    tracemalloc.start()
    try:
        correlation_matrix(16, FieldConfig.from_mu_l(1.0), 16385)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4.5 * block


def test_correlation_holds_two_real_odd_blocks():
    # four real (16, 16386) odd-column blocks, 8.39 MB, are one complex row block; the complex-row
    # contraction peaked at 34.1 MB, and the weight sums, one mode at a time, peak at 2.0 MB
    block = 16 * 16386 * 8
    tracemalloc.start()
    try:
        correlation_matrix(16, FieldConfig.from_mu_l(1.0), 16385)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * block


def test_occupation_streams_its_modes():
    # one dense (128, 8193) float64 block over the odd columns is 8.39 MB, and dense weight
    # blocks read 52 MB; the weight sums, one mode at a time, peak at 2.0 MB
    tracemalloc.start()
    try:
        occupation_spectrum(128, FieldConfig.from_mu_l(1.0), 16385)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 128 * 8193 * 8


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
    spectrum = occupation_spectrum(k_max, cfg, n_max)
    assert np.max(np.abs(spectrum - occupations) / occupations) <= 1e-15
    corr = correlation_matrix(k_max, cfg, n_max)
    diagonals = np.diag(exact)
    assert np.max(np.abs(np.diag(corr) - diagonals) / np.abs(diagonals)) <= 2e-12
    off = ~np.eye(k_max, dtype=bool)
    assert np.max(np.abs(corr - exact)[off]) <= 4e-15 * np.max(np.abs(exact))


def test_near_diagonality_ratio_snapshot():
    # measured ratio recorded for regression; the advertised <= 10% diagonal
    # dominance does not hold for the full coefficient rows (see README)
    mat = correlation_matrix(16, FieldConfig.from_mu_l(1.0), n_max=1025)
    diag = np.abs(np.diag(mat))
    off = np.abs(mat[~np.eye(16, dtype=bool)])
    ratio = float(np.median(off) / np.median(diag))
    assert ratio == pytest.approx(1.2013397536004207, abs=1e-6)


# --- plumbing ----------------------------------------------------------------

def test_converged_cutoff_rule():
    # smallest odd N >= max(513, 4*k_max + 1, 32*mu*L); the k_max term is not capped
    assert converged_cutoff(128, FieldConfig.from_mu_l(10.0)) == 513
    assert converged_cutoff(200, CFG) == 801
    assert converged_cutoff(5000, CFG) == 20001
    assert converged_cutoff(16, FieldConfig.from_mu_l(100.0)) == 3201
    assert converged_cutoff(16, FieldConfig.from_mu_l(100.01)) == 3201
    assert converged_cutoff(16, FieldConfig.from_mu_l(512.0)) == 16385
    for mu_l in (512.5, 1e308):
        with pytest.raises(ValueError, match="--truncation"):
            converged_cutoff(16, FieldConfig.from_mu_l(mu_l))


def test_spectrum_csv_format():
    cfgs = {mu_l: FieldConfig.from_mu_l(mu_l) for mu_l in (0.1, 1.0)}
    spectra = {mu_l: occupation_spectrum(3, cfg, 65) for mu_l, cfg in cfgs.items()}
    buf = io.StringIO()
    write_spectrum_csv(buf, spectra, cfgs[0.1], 65)
    lines = buf.getvalue().splitlines()
    assert lines[0].startswith("#")
    assert lines[1] == "k,n_muL_0.1,n_muL_1.0"
    assert len(lines) == 5
    k, v1, v2 = lines[2].split(",")
    assert k == "1" and 0 < float(v1) < 1 and 0 < float(v2) < 1


def test_correlation_csv_format():
    buf = io.StringIO()
    write_correlation_csv(buf, correlation_matrix(2, CFG, 65), CFG, 65)
    lines = buf.getvalue().splitlines()
    assert lines[1] == "k,m,re_d,im_d"
    assert len(lines) == 6
