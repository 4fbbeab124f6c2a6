import io
import math
import os
import tracemalloc

import numpy as np
import pytest

from fermisect.bogoliubov import (
    KAPPA_ALPHA,
    KAPPA_BETA,
    SERIES_PREFACTOR,
    build_pair,
    canonicity_residual,
    coeff_w,
    coefficients,
    cutoff_indices,
    iter_coefficients,
    overlap_oracle,
    pair_to_csv,
    QuadratureUnresolved,
    region_sign,
)
from fermisect.field import (
    Branch,
    DegenerateDispersion,
    FieldConfig,
    Region,
    energy,
    spinor_overlaps,
    subsection_momentum,
)
from kernel_rows import coefficient_rows, pair_from_csv

CFG = FieldConfig(mass=1.0, half_length=1.0, time=0.0)
PP = (Branch.POSITIVE, Branch.POSITIVE)
PM = (Branch.POSITIVE, Branch.NEGATIVE)


# --- W ---------------------------------------------------------------------

def test_w_zero_mode():
    assert coeff_w(0, CFG) == 0


def test_w_value_and_modulus():
    q = float(subsection_momentum(1, CFG))
    eps = float(energy(q, CFG.mass))
    assert coeff_w(1, CFG) == pytest.approx(q / (math.sqrt(2.0) * eps))
    assert abs(coeff_w(1, CFG)) == pytest.approx(0.6983177918999851)


def test_w_ultrarelativistic_modulus():
    # modulus q/(sqrt(2) eps) climbs toward 1/sqrt(2) and stays below it
    mods = [abs(coeff_w(m, CFG)) for m in (1, 10, 100, 1000)]
    assert all(mods[i] < mods[i + 1] for i in range(len(mods) - 1))
    assert mods[-1] < 1.0 / math.sqrt(2.0)
    assert mods[-1] == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-5)


def test_w_time_phase():
    cfg = FieldConfig(mass=1.0, half_length=1.0, time=0.4)
    q = float(subsection_momentum(2, cfg))
    eps = float(energy(q, cfg.mass))
    assert coeff_w(2, cfg) == pytest.approx(
        q / (math.sqrt(2) * eps) * np.exp(-2j * eps * 0.4)
    )


def _entry(m, k, region=Region.LEFT, cfg=CFG):
    """``(alpha[m, k], beta[m, k])`` from the coefficient kernel, signed for ``region``."""
    sign = region_sign([k], region)
    alpha, beta = coefficients(m, [k], cfg)
    return complex((alpha * sign)[0]), complex((beta * sign)[0])


# --- odd-column series -----------------------------------------------------

def test_a_against_oracle_entry():
    # the calibrated closed form at (m=0, k=1) must match quadrature
    oracle = overlap_oracle(0, 1, Region.LEFT, PP, CFG)
    assert abs(_entry(0, 1)[0] - oracle) <= 1e-12


# --- piecewise entries -----------------------------------------------------

def test_even_column_deltas():
    assert _entry(3, 6)[0] == pytest.approx(1 / math.sqrt(2))
    assert _entry(3, 4)[0] == 0
    assert _entry(3, -6)[1] == coeff_w(3, CFG)
    assert _entry(3, 6)[1] == 0


def test_calibrated_entry_matches_oracle():
    alpha, beta = _entry(0, 1)
    assert abs(alpha - overlap_oracle(0, 1, Region.LEFT, PP, CFG)) <= 1e-6
    assert abs(beta - overlap_oracle(0, 1, Region.LEFT, PM, CFG)) <= 1e-6


def test_all_branch_pair_routes_agree():
    # same-branch routes estimate alpha, mixed routes estimate beta
    pairs = [PP, PM, (Branch.NEGATIVE, Branch.POSITIVE), (Branch.NEGATIVE, Branch.NEGATIVE)]
    for m, k in [(-2, 3), (1, -1), (2, 4), (0, 0)]:
        alpha, beta = _entry(m, k)
        for branches in pairs:
            ref = alpha if branches[0] is branches[1] else beta
            assert abs(overlap_oracle(m, k, Region.LEFT, branches, CFG) - ref) <= 1e-10


def test_oracle_even_off_delta_columns_vanish():
    assert abs(overlap_oracle(1, 4, Region.LEFT, PP, CFG)) <= 1e-12
    assert abs(overlap_oracle(2, -2, Region.LEFT, PM, CFG)) <= 1e-12


def test_oracle_matched_column_value():
    # k = 2m: constant-phase integral over the half interval gives 1/sqrt(2)
    val = overlap_oracle(2, 4, Region.LEFT, PP, CFG)
    assert val == pytest.approx(1 / math.sqrt(2) * float(spinor_overlaps(
        subsection_momentum(2, CFG), subsection_momentum(2, CFG), CFG.mass)[0]))


def test_quadrature_unresolved():
    with pytest.raises(QuadratureUnresolved):
        overlap_oracle(8, 17, Region.LEFT, PP, CFG, order=3)


def test_row_keeps_the_entry_checks():
    # at order 16 row m = 1 resolves k in [-7, 11] and no k from 12 on
    resolved = [0, 1, 2, 3, 4, 5]
    row = overlap_oracle(1, np.array(resolved), Region.LEFT, PP, CFG, order=16)
    assert row.tolist() == [overlap_oracle(1, k, Region.LEFT, PP, CFG, order=16) for k in resolved]
    with pytest.raises(QuadratureUnresolved, match=r"\(m=1, k=12\)"):
        overlap_oracle(1, np.array([0, 1, 2, 3, 12, 4, 5]), Region.LEFT, PP, CFG, order=16)
    with pytest.raises(QuadratureUnresolved, match=r"\(m=1, k=13\)"):
        overlap_oracle(1, np.array([0, 13, 2, 12]), Region.LEFT, PP, CFG, order=16)
    massless = FieldConfig(mass=0.0, half_length=1.0)
    assert np.all(np.isfinite(overlap_oracle(1, np.array([-3, -1, 1, 3]), Region.LEFT, PP, massless)))
    for region, branches in ((Region.LEFT, PP), (Region.RIGHT, PM)):
        with pytest.raises(DegenerateDispersion):
            overlap_oracle(1, np.arange(-3, 4), region, branches, massless)


# --- calibration -----------------------------------------------------------

def _measured_prefactors(cfg=CFG, region=Region.LEFT):
    """Series prefactors the oracle measures: its (0, 1) entry over the kernel's bare term."""
    alpha, beta = _entry(0, 1, region, cfg)
    return (overlap_oracle(0, 1, region, PP, cfg) / (alpha / KAPPA_ALPHA),
            overlap_oracle(0, 1, region, PM, cfg) / (beta / KAPPA_BETA))


def test_calibration_reproduces_module_constants():
    kappa_a, kappa_b = _measured_prefactors()
    assert abs(kappa_a - KAPPA_ALPHA) <= 1e-10
    assert abs(kappa_b - KAPPA_BETA) <= 1e-10


def test_calibration_selects_the_smaller_prefactor():
    magnitude = 0.5 * sum(abs(kappa) for kappa in _measured_prefactors())
    assert magnitude == pytest.approx(SERIES_PREFACTOR, abs=1e-10)
    assert magnitude == pytest.approx(1.0 / (math.sqrt(2.0) * math.pi), abs=1e-10)
    assert abs(magnitude - 1.0 / math.sqrt(2.0 * math.pi)) > 0.17


def test_calibration_stable_across_configs_and_regions():
    for mu_l in (0.1, 10.0):
        kappa_a, _ = _measured_prefactors(FieldConfig.from_mu_l(mu_l))
        assert abs(kappa_a - KAPPA_ALPHA) <= 1e-10
    kappa_a, kappa_b = _measured_prefactors(region=Region.RIGHT)
    assert abs(kappa_a - KAPPA_ALPHA) <= 1e-10
    assert abs(kappa_b - KAPPA_BETA) <= 1e-10


# --- pair assembly ---------------------------------------------------------

def test_build_pair_n1_hand_enumeration():
    # N = 1: 3x3 matrices, even columns by hand, every entry against quadrature
    ks = cutoff_indices(1)
    pair_alpha, pair_beta = coefficient_rows(ks, ks, CFG)
    assert pair_alpha.shape == (3, 3)
    for m in (-1, 0, 1):
        for k in (-1, 0, 1):
            alpha, beta = pair_alpha[m + 1, k + 1], pair_beta[m + 1, k + 1]
            if k % 2 == 0:
                assert alpha == pytest.approx(1 / math.sqrt(2) if k == 2 * m else 0.0)
                assert beta == pytest.approx(coeff_w(m, CFG) if k == -2 * m else 0.0)
            assert abs(alpha - overlap_oracle(m, k, Region.LEFT, PP, CFG)) <= 1e-10
            assert abs(beta - overlap_oracle(m, k, Region.LEFT, PM, CFG)) <= 1e-10


def test_even_columns_sparsity():
    pair = build_pair(Region.LEFT, CFG, 8)
    n = pair.n_max
    alpha, beta = coefficient_rows(pair.indices, pair.indices, CFG)
    for m in pair.indices:
        for k in pair.indices:
            if k % 2 == 0 and k != 2 * m:
                assert alpha[m + n, k + n] == 0
            if k % 2 == 0 and k != -2 * m:
                assert beta[m + n, k + n] == 0


def test_right_pair_negates_odd_columns():
    # left rows times region_sign are the right half the oracle integrates, entry by entry
    ks = cutoff_indices(6)
    sign = region_sign(ks, Region.RIGHT)
    assert np.array_equal(sign, np.where(ks % 2 == 0, 1.0, -1.0))
    alpha, beta = coefficient_rows(ks, ks, CFG)
    right_alpha, right_beta = alpha * sign, beta * sign
    for i, m in enumerate(ks.tolist()):
        assert np.all(np.abs(right_alpha[i] - overlap_oracle(m, ks, Region.RIGHT, PP, CFG)) <= 1e-10)
        assert np.all(np.abs(right_beta[i] - overlap_oracle(m, ks, Region.RIGHT, PM, CFG)) <= 1e-10)
    assert abs(overlap_oracle(1, 3, Region.RIGHT, PP, CFG)
               + overlap_oracle(1, 3, Region.LEFT, PP, CFG)) <= 1e-12


def test_cross_region_magnitudes_coincide():
    # the oracle's two halves agree in magnitude with each other and with the kernel
    cfg = FieldConfig.from_mu_l(3.0, time=0.4)
    ks = cutoff_indices(4)
    alpha, beta = coefficient_rows(ks, ks, cfg)
    for i, m in enumerate(ks.tolist()):
        for branches, kernel in ((PP, alpha[i]), (PM, beta[i])):
            left = np.abs(overlap_oracle(m, ks, Region.LEFT, branches, cfg))
            right = np.abs(overlap_oracle(m, ks, Region.RIGHT, branches, cfg))
            assert np.all(np.abs(left - right) <= 1e-10)
            assert np.all(np.abs(right - np.abs(kernel)) <= 1e-10)


def test_magnitudes_independent_of_time():
    cfg_t = FieldConfig(mass=1.0, half_length=1.0, time=1.3)
    ks = np.arange(-30, 31)
    a0, b0 = np.abs(coefficients(2, ks, CFG))
    at, bt = np.abs(coefficients(2, ks, cfg_t))
    assert np.allclose(a0, at, atol=1e-14)
    assert np.allclose(b0, bt, atol=1e-14)


# --- canonicity residual (honest numbers, see README) -----------------------

def test_canonicity_residual_zero_mode_converges():
    r = [canonicity_residual(0, n, CFG) for n in (64, 128, 256, 512)]
    assert all(r[i + 1] < r[i] for i in range(3))
    assert r[-1] <= r[0] / 4.0


def test_canonicity_residual_snapshot_nonzero_modes():
    # the matched-momentum W term keeps the sum above 1 for m != 0
    assert canonicity_residual(1, 512, CFG) == pytest.approx(0.878, abs=2e-3)
    assert canonicity_residual(4, 512, CFG) == pytest.approx(0.973, abs=2e-3)


# --- serialization ---------------------------------------------------------

def test_csv_round_trip():
    pair = build_pair(Region.LEFT, CFG, 3)
    buf = io.StringIO()
    pair_to_csv(pair, buf)
    buf.seek(0)
    entries = pair_from_csv(buf)
    n = pair.n_max
    alpha, beta = coefficient_rows(pair.indices, pair.indices, CFG)
    for m in pair.indices:
        for k in pair.indices:
            a = alpha[m + n, k + n]
            b = beta[m + n, k + n]
            if a == 0 and b == 0:
                assert (int(m), int(k)) not in entries
            else:
                ra, rb = entries[(int(m), int(k))]
                assert ra == pytest.approx(a)
                assert rb == pytest.approx(b)


def test_domain_check_runs_before_the_first_row():
    # at L = 1e-74 row 1 over k = +-1 is in range, and row 10**6 (q about 6e80) overflows the
    # overlap denominator: a stream holding both raises before it yields row 1
    cfg = FieldConfig(mass=1.0, half_length=1e-74)
    assert np.all(np.isfinite(next(iter_coefficients([1], [-1, 1], cfg))[1]))
    with pytest.raises(ValueError, match="spinor overlap overflows float64"):
        next(iter_coefficients([1, 10**6], [-1, 1], cfg))
    with pytest.raises(ValueError, match="--time 1e"):
        next(iter_coefficients([1], [-1, 1], FieldConfig(mass=1.0, half_length=1.0, time=1e308)))


def test_streamed_rows_equal_single_rows():
    # the column terms computed once per call serve every row unchanged
    ks = np.arange(-9, 12)
    ms = [3, -2, 0, 3, 5]
    cfg = FieldConfig.from_mu_l(2.0, time=0.7)
    alpha, beta = coefficient_rows(ms, ks, cfg)
    for i, (a, b) in enumerate(iter_coefficients(ms, ks, cfg)):
        single = coefficients(ms[i], ks, cfg)
        assert np.array_equal(a, single[0]) and np.array_equal(b, single[1])
        assert np.array_equal(alpha[i], a) and np.array_equal(beta[i], b)


def test_dump_streams_without_its_matrices():
    # one (2N+1)^2 complex matrix at N=128 alone is 1.06 MB
    tracemalloc.start()
    try:
        pair_to_csv(build_pair(Region.LEFT, FieldConfig.from_mu_l(1.0, time=0.5), 128), os.devnull)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5e6


def test_csv_header_echoes_config():
    pair = build_pair(Region.RIGHT, CFG, 2)
    buf = io.StringIO()
    pair_to_csv(pair, buf)
    header = buf.getvalue().splitlines()[0]
    assert header.startswith("#")
    assert "region=right" in header and "mass=1.0" in header
