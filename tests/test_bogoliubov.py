import importlib.util
import io
import math
import os
import re
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fermisect import bogoliubov, spectrum
from fermisect.bogoliubov import (
    KAPPA_ALPHA,
    KAPPA_BETA,
    SERIES_PREFACTOR,
    canonicity_residual,
    coeff_w,
    cutoff_indices,
    iter_coefficients,
    overlap_oracle,
    pair_to_csv,
    QuadratureUnresolved,
    region_sign,
)
from fermisect.field import (
    Branch,
    FieldConfig,
    Region,
    energy,
    mode_function,
    section_momentum,
    spinor,
    subsection_momentum,
)
from kernel_rows import coefficient_rows, pair_from_csv, reference_coeff_w, reference_pair_csv
from oracle_reference import kernel_row

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


@pytest.mark.parametrize("time", [0.0, -0.0, 0.25, -3.1, 1e5])
def test_w_array_equals_the_scalar_form_by_float_hex(time):
    # the bench's mu*L grid, 0.37, 100 and 1e-3; m = 0 gives 0 by continuity
    ms = np.concatenate((np.arange(-40, 41), [-5000, 129, 4096, 65537]))
    for mu_l in [*np.logspace(-1.0, 1.0, 9).tolist(), 0.37, 100.0, 1e-3]:
        cfg = FieldConfig.from_mu_l(mu_l, time=time)
        block = coeff_w(ms, cfg)
        assert block.shape == ms.shape
        for m, w in zip(ms.tolist(), block.tolist()):
            want = complex(reference_coeff_w(m, cfg))
            assert (w.real.hex(), w.imag.hex()) == (want.real.hex(), want.imag.hex()), (mu_l, m)
            one = complex(coeff_w(m, cfg))
            assert (one.real.hex(), one.imag.hex()) == (want.real.hex(), want.imag.hex()), (mu_l, m)
    # at mass 0 the formula reads 0/0 there
    zero = coeff_w(np.arange(-2, 3), FieldConfig(mass=0.0, half_length=1.0, time=time)).tolist()[2]
    assert (zero.real.hex(), zero.imag.hex()) == ("0x0.0p+0", "0x0.0p+0")


def _entry(m, k, region=Region.LEFT, cfg=CFG):
    """``(alpha[m, k], beta[m, k])`` from the coefficient kernel, signed for ``region``."""
    sign = region_sign([k], region)
    alpha, beta = next(iter_coefficients((m,), [k], cfg))
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
    u = spinor(subsection_momentum(2, CFG), CFG.mass, Branch.POSITIVE)
    assert val == pytest.approx(1 / math.sqrt(2) * float(u.dot(u)))


def test_quadrature_unresolved():
    with pytest.raises(QuadratureUnresolved):
        overlap_oracle(8, 17, Region.LEFT, PP, CFG, order=3)


def test_row_keeps_the_entry_checks():
    # at order 16 row m = 1 resolves k in [-8, 11] and no k from 12 on
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
        with pytest.raises(ValueError, match="spinor undefined at p = mass = 0"):
            overlap_oracle(1, np.arange(-3, 4), region, branches, massless)


def test_block_keeps_the_entry_checks_in_row_major_order():
    # at order 16 rows 2, 1 and -1 resolve k in [-6, 13], [-8, 11] and [-11, 8]
    ms = np.array([2, 1, -1])
    block = overlap_oracle(ms, np.array([0, 5, -6, 8]), Region.LEFT, PP, CFG, order=16)
    assert block.shape == (3, 4)
    assert [row.tolist() for row in block] == [
        overlap_oracle(m, np.array([0, 5, -6, 8]), Region.LEFT, PP, CFG, order=16).tolist()
        for m in ms.tolist()]
    # (1, 12) comes first by columns, (2, -12) by rows
    with pytest.raises(QuadratureUnresolved, match=r"\(m=2, k=-12\): orders 16 and 32 disagree"):
        overlap_oracle(ms, np.array([0, 12, 13, -12]), Region.LEFT, PP, CFG, order=16)
    with pytest.raises(QuadratureUnresolved, match=r"\(m=1, k=12\)"):
        overlap_oracle(np.array([1, 2]), np.array([12, -12]), Region.LEFT, PP, CFG, order=16)
    massless = FieldConfig(mass=0.0, half_length=1.0)
    odd = np.array([-3, -1, 1, 3])
    assert np.all(np.isfinite(overlap_oracle(np.array([1, -2]), odd, Region.LEFT, PP, massless)))
    with pytest.raises(ValueError, match="spinor undefined at p = mass = 0"):
        overlap_oracle(np.array([1, 0]), odd, Region.LEFT, PP, massless)


#: One-entry default calls ``(region, branches, m, k) -> (real.hex(), imag.hex())`` at
#: ``mu*L = 1``, ``t = 0.3``, recorded when every entry of a call took its own order.
ENTRY_BITS = {
    (Region.LEFT, PP, 0, 1): ("0x1.d931dd3c842d4p-3", "0x1.1f35cba3978a5p-2"),
    (Region.LEFT, PP, 3, -7): ("-0x1.69078406ba938p-10", "-0x1.06edfc6c99fe4p-10"),
    (Region.LEFT, PP, -8, 17): ("0x1.bec0c13612429p-13", "0x1.44b46ee03aa84p-13"),
    (Region.LEFT, PP, 2, 4): ("0x1.6a09e667f3bcbp-1", "-0x1.33305a1694414p-58"),
    (Region.LEFT, PM, 0, 1): ("-0x1.05564741f5dbfp-2", "-0x1.2e8bdd6ab7a23p-4"),
    (Region.LEFT, PM, 3, -7): ("0x1.0f948ba548c49p-3", "-0x1.b7ec6215d7d2cp-2"),
    (Region.LEFT, PM, -8, 17): ("0x1.17c12eb17a05dp-3", "-0x1.b72300a03efb6p-2"),
    (Region.LEFT, PM, 2, 4): ("0x0.0p+0", "-0x0.0p+0"),
    (Region.RIGHT, PP, 0, 1): ("-0x1.d931dd3c842d3p-3", "-0x1.1f35cba3978a3p-2"),
    (Region.RIGHT, PP, 3, -7): ("0x1.69078406ba8fbp-10", "0x1.06edfc6c99feep-10"),
    (Region.RIGHT, PP, -8, 17): ("-0x1.bec0c136123b0p-13", "-0x1.44b46ee03aafap-13"),
    (Region.RIGHT, PP, 2, 4): ("0x1.6a09e667f3bcbp-1", "-0x1.b20de5cca00efp-59"),
    (Region.RIGHT, PM, 0, 1): ("0x1.05564741f5dbep-2", "0x1.2e8bdd6ab7a1fp-4"),
    (Region.RIGHT, PM, 3, -7): ("-0x1.0f948ba548c33p-3", "0x1.b7ec6215d7d2bp-2"),
    (Region.RIGHT, PM, -8, 17): ("-0x1.17c12eb17a095p-3", "0x1.b72300a03efb8p-2"),
    (Region.RIGHT, PM, 2, 4): ("0x0.0p+0", "-0x0.0p+0"),
}


def test_one_entry_default_calls_keep_their_bits():
    # a one-entry call's order is the one its entry always took, so its bits stay
    cfg = FieldConfig.from_mu_l(1.0, time=0.3)
    for (region, branches, m, k), bits in ENTRY_BITS.items():
        value = overlap_oracle(m, k, region, branches, cfg)
        assert (value.real.hex(), value.imag.hex()) == bits


def test_block_agrees_with_one_entry_calls_on_the_criterion_1_grid():
    # verify integrates criterion 1's blocks at the order of their fastest entry, the bench
    # one entry at a time at that entry's order; both resolve every entry far below 1e-12
    ms, ks = np.arange(-8, 9), np.arange(-17, 18)
    for mu_l in (0.1, 1.0, 10.0):
        cfg = FieldConfig.from_mu_l(mu_l)
        for region in (Region.LEFT, Region.RIGHT):
            for branches in (PP, PM):
                block = overlap_oracle(ms, ks, region, branches, cfg)
                entries = [[overlap_oracle(m, k, region, branches, cfg) for k in ks.tolist()]
                           for m in ms.tolist()]
                assert np.max(np.abs(block - np.array(entries))) <= 1e-12


ALL_PAIRS = [PP, PM, (Branch.NEGATIVE, Branch.POSITIVE), (Branch.NEGATIVE, Branch.NEGATIVE)]


def _hex_entries(values):
    return [(v.real.hex(), v.imag.hex()) for v in np.ravel(values).tolist()]


@pytest.mark.parametrize("m,k", [(np.arange(-8, 9), np.arange(-17, 18)), (3, np.arange(-7, 8)),
                                 (-8, 17), (2, 4)], ids=["block", "row", "entry", "matched"])
@pytest.mark.parametrize("region", [Region.LEFT, Region.RIGHT])
def test_pair_list_equals_the_one_pair_calls_bit_for_bit(region, m, k):
    # one node set and one mode evaluation per order serve every pair of the list
    cfg = FieldConfig.from_mu_l(1.0, time=0.3)
    for pairs in (ALL_PAIRS, ALL_PAIRS[::-1], [PM, PP], [PM], []):
        stacked = overlap_oracle(m, k, region, pairs, cfg)
        alone = [overlap_oracle(m, k, region, branches, cfg) for branches in pairs]
        assert isinstance(stacked, list)
        assert [np.shape(v) for v in stacked] == [np.shape(v) for v in alone]
        assert [_hex_entries(v) for v in stacked] == [_hex_entries(v) for v in alone]
    alone = [overlap_oracle(m, k, region, branches, cfg, order=96) for branches in ALL_PAIRS]
    stacked = overlap_oracle(m, k, region, ALL_PAIRS, cfg, order=96)
    assert [_hex_entries(v) for v in stacked] == [_hex_entries(v) for v in alone]


def _unresolved(ms, ks, branches):
    """The message that ``overlap_oracle`` raises at order 16 on the left half, or None."""
    try:
        overlap_oracle(ms, ks, Region.LEFT, branches, CFG, order=16)
    except QuadratureUnresolved as exc:
        return str(exc)
    return None


def test_pair_list_raises_what_the_first_unresolved_pair_raises():
    # at order 16 rows 2, 1, -1 over columns 0, 12, 13, -12 first fail at (2, -12) for the
    # unmixed pairs and at (2, 12) for the mixed ones; over 0, 5, -6, 8 only the mixed pairs fail
    ms = np.array([2, 1, -1])
    for ks in (np.array([0, 12, 13, -12]), np.array([0, 5, -6, 8])):
        for pairs in (ALL_PAIRS, ALL_PAIRS[::-1], [PP, PM], [PM, PP], [ALL_PAIRS[3], PM]):
            first = next(filter(None, (_unresolved(ms, ks, branches) for branches in pairs)))
            assert _unresolved(ms, ks, pairs) == first
    assert "(m=2, k=-12)" in _unresolved(ms, np.array([0, 12, 13, -12]), [PP, PM])
    assert "(m=2, k=12)" in _unresolved(ms, np.array([0, 12, 13, -12]), [PM, PP])
    assert "(m=2, k=8): orders 16 and 32" in _unresolved(ms, np.array([0, 5, -6, 8]), [PP, PM])
    assert _unresolved(ms, np.array([0, 5, -6, 8]), [PP, ALL_PAIRS[3]]) is None


def test_canonicity_residual_rows_equal_the_one_row_calls_bit_for_bit():
    ms = np.arange(-4, 5)
    for cfg in (CFG, FieldConfig.from_mu_l(0.1, time=0.7)):
        for n in (1, 64, 512):
            rows = canonicity_residual(ms, n, cfg)
            assert rows.shape == (9,) and rows.dtype == float
            assert [r.hex() for r in rows.tolist()] == [
                canonicity_residual(np.array([m]), n, cfg)[0].hex() for m in ms.tolist()]
    assert canonicity_residual(np.array([], dtype=int), 64, CFG).shape == (0,)


def test_oracle_rejects_a_mass_whose_spinor_normalization_overflows():
    # no domain check runs before the oracle; at mass 1e200 its spinors returned zeros
    cfg = FieldConfig(mass=1e200, half_length=1.0)
    for branches in (PP, PM):
        with pytest.raises(ValueError, match="spinor normalization overflows float64"):
            overlap_oracle(0, 1, Region.LEFT, branches, cfg)


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
    assert np.all(np.abs(pair_alpha - overlap_oracle(ks, ks, Region.LEFT, PP, CFG)) <= 1e-10)
    assert np.all(np.abs(pair_beta - overlap_oracle(ks, ks, Region.LEFT, PM, CFG)) <= 1e-10)


def test_even_columns_sparsity():
    n = 8
    ks = cutoff_indices(n)
    alpha, beta = coefficient_rows(ks, ks, CFG)
    for m in ks:
        for k in ks:
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
    assert np.all(np.abs(right_alpha - overlap_oracle(ks, ks, Region.RIGHT, PP, CFG)) <= 1e-10)
    assert np.all(np.abs(right_beta - overlap_oracle(ks, ks, Region.RIGHT, PM, CFG)) <= 1e-10)
    assert abs(overlap_oracle(1, 3, Region.RIGHT, PP, CFG)
               + overlap_oracle(1, 3, Region.LEFT, PP, CFG)) <= 1e-12


def test_cross_region_magnitudes_coincide():
    # the oracle's two halves agree in magnitude with each other and with the kernel
    cfg = FieldConfig.from_mu_l(3.0, time=0.4)
    ks = cutoff_indices(4)
    alpha, beta = coefficient_rows(ks, ks, cfg)
    for branches, kernel in ((PP, alpha), (PM, beta)):
        left = np.abs(overlap_oracle(ks, ks, Region.LEFT, branches, cfg))
        right = np.abs(overlap_oracle(ks, ks, Region.RIGHT, branches, cfg))
        assert np.all(np.abs(left - right) <= 1e-10)
        assert np.all(np.abs(right - np.abs(kernel)) <= 1e-10)


def test_magnitudes_independent_of_time():
    cfg_t = FieldConfig(mass=1.0, half_length=1.0, time=1.3)
    ks = np.arange(-30, 31)
    a0, b0 = np.abs(next(iter_coefficients((2,), ks, CFG)))
    at, bt = np.abs(next(iter_coefficients((2,), ks, cfg_t)))
    assert np.allclose(a0, at, atol=1e-14)
    assert np.allclose(b0, bt, atol=1e-14)


# --- canonicity residual (honest numbers, see README) -----------------------

def test_canonicity_residual_zero_mode_converges():
    r = [canonicity_residual(np.array([0]), n, CFG)[0] for n in (64, 128, 256, 512)]
    assert all(r[i + 1] < r[i] for i in range(3))
    assert r[-1] <= r[0] / 4.0


def test_canonicity_residual_snapshot_nonzero_modes():
    # the matched-momentum W term keeps the sum above 1 for m != 0
    assert canonicity_residual(np.array([1]), 512, CFG)[0] == pytest.approx(0.878, abs=2e-3)
    assert canonicity_residual(np.array([4]), 512, CFG)[0] == pytest.approx(0.973, abs=2e-3)


# --- the oracle's reference basis (README, Known deviations) ----------------

def _reference_gram(ks_a, branch_a, ks_b, branch_b):
    """400-node quadrature Gram ``<(branch_a, k_a)|(branch_b, k_b)>`` of the oracle's full-interval modes.

    A mode is ``spinor(p_k, branch)`` times `mode_function` on the whole interval, the plane
    wave conjugated on the negative branch as in the oracle.
    """
    lo, hi = 0.0, 2 * CFG.half_length
    nodes, weights = np.polynomial.legendre.leggauss(400)
    x = 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)
    w = 0.5 * (hi - lo) * weights

    def modes(ks, branch):
        wave = mode_function(ks[:, None], None, x, CFG)
        if branch is Branch.NEGATIVE:
            wave = np.conj(wave)
        spin = spinor(section_momentum(ks, CFG), CFG.mass, branch)
        return np.stack([spin.upper[:, None] * wave, spin.lower[:, None] * wave])

    return np.einsum("n,cin,cjn->ij", w, np.conj(modes(ks_a, branch_a)), modes(ks_b, branch_b))


def test_reference_basis_overlaps_across_branches_by_p_over_e():
    # the negative-branch mode u-(p_k) exp(-i p_k x) has momentum -p_k but the
    # spinor of +p_k, so it overlaps the positive mode of -k by u+(p).u-(-p) = p/E
    ks = np.array([1, 2, 5])
    p = section_momentum(ks, CFG)
    cross = np.diag(_reference_gram(ks, Branch.POSITIVE, -ks, Branch.NEGATIVE))
    assert np.max(np.abs(cross - p / energy(p, CFG.mass))) <= 1e-14
    assert cross.real == pytest.approx([0.95289, 0.98757, 0.99798], abs=5e-6)
    same_k = np.diag(_reference_gram(ks, Branch.POSITIVE, ks, Branch.NEGATIVE))
    assert np.max(np.abs(same_k)) <= 1e-15
    for branch in Branch:
        norms = np.diag(_reference_gram(ks, branch, ks, branch))
        assert np.max(np.abs(norms - 1.0)) <= 1e-14


@pytest.mark.parametrize("m,total", [(1, 1.87400), (2, 1.93893)])
def test_oracle_parseval_sum_is_one_plus_canonicity_residual(m, total):
    # the oracle's own rows carry the same excess over 1 as the closed form
    ks = cutoff_indices(48)
    alpha = overlap_oracle(m, ks, Region.LEFT, PP, CFG)
    beta = overlap_oracle(m, ks, Region.LEFT, PM, CFG)
    parseval = np.sum(np.abs(alpha) ** 2) + np.sum(np.abs(beta) ** 2)
    assert abs(parseval - (1.0 + canonicity_residual(np.array([m]), 48, CFG)[0])) <= 1e-13
    assert parseval == pytest.approx(total, abs=5e-6)


# --- serialization ---------------------------------------------------------

def test_csv_round_trip():
    n = 3
    ks = cutoff_indices(n)
    buf = io.StringIO()
    pair_to_csv(Region.LEFT, buf, CFG, n)
    buf.seek(0)
    entries = pair_from_csv(buf)
    alpha, beta = coefficient_rows(ks, ks, CFG)
    for m in ks:
        for k in ks:
            a = alpha[m + n, k + n]
            b = beta[m + n, k + n]
            if a == 0 and b == 0:
                assert (int(m), int(k)) not in entries
            else:
                ra, rb = entries[(int(m), int(k))]
                assert ra == pytest.approx(a)
                assert rb == pytest.approx(b)


def _dump_pair(region, cfg, n):
    """The text of `pair_to_csv` and of its byte reference, the earlier tuple-list formatter.

    Each is split at its newlines, so that a failure names the first line that differs rather
    than diffing two texts of up to a megabyte.
    """
    got, want = io.StringIO(), io.StringIO()
    pair_to_csv(region, got, cfg, n)
    reference_pair_csv(region, want, cfg, n)
    return got.getvalue().split("\n"), want.getvalue().split("\n")


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(mu_l=st.floats(1e-3, 100.0),
       time=st.one_of(st.just(0.0), st.floats(-20.0, 20.0)),
       region=st.sampled_from((Region.LEFT, Region.RIGHT)),
       n=st.integers(1, 48))
# time 0 writes signed zeros; at mu*L = 0.1 beta cells print in e-0x notation
@example(mu_l=0.1, time=0.0, region=Region.RIGHT, n=48)
@example(mu_l=0.1, time=-0.7, region=Region.LEFT, n=48)
@example(mu_l=1.0, time=0.0, region=Region.LEFT, n=1)
def test_dump_bytes_equal_the_tuple_list_formatter(mu_l, time, region, n):
    got, want = _dump_pair(region, FieldConfig.from_mu_l(mu_l, time=time), n)
    assert got == want


def _bench_module(name):
    spec = importlib.util.spec_from_file_location(name, Path(__file__).resolve().parents[1]
                                                  / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # the bench's request streams import make_reference by name
    spec.loader.exec_module(module)
    return module


def test_dump_bytes_equal_the_tuple_list_formatter_on_the_bench_configs():
    grid, times = _bench_module("make_reference").GRID, _bench_module("streams").DUMP_TIMES
    signed_zeros = exponents = 0
    for mu_l in grid:
        for time in times:
            for region in (Region.LEFT, Region.RIGHT):
                got, want = _dump_pair(region, FieldConfig.from_mu_l(mu_l, time=time), 64)
                assert got == want, (mu_l, time, region)
                text = "\n".join(got)
                signed_zeros += text.count(",-0.0")
                exponents += text.count("e-0")
    # the sweep reaches both cell forms that a formatter other than float repr would change
    assert signed_zeros > 0 and exponents > 0


def test_domain_check_runs_before_the_first_row():
    # at L = 1e-74 row 1 over k = +-1 is in range, and row 10**6 (q about 6e80) overflows the
    # overlap denominator: a stream holding both raises before it yields row 1
    cfg = FieldConfig(mass=1.0, half_length=1e-74)
    assert np.all(np.isfinite(next(iter_coefficients([1], [-1, 1], cfg))[1]))
    with pytest.raises(ValueError, match="spinor overlap overflows float64"):
        next(iter_coefficients([1, 10**6], [-1, 1], cfg))
    with pytest.raises(ValueError, match="--time 1e"):
        next(iter_coefficients([1], [-1, 1], FieldConfig(mass=1.0, half_length=1.0, time=1e308)))


def test_row_0_rejects_a_mass_whose_overlap_denominator_underflows():
    # eps_p*mu*(eps_p+mu)*2mu at p = pi turns subnormal below a mass of about 3.4e-155; rows
    # m != 0 and a row 0 over even columns need no such product
    for mass in (1e-200, 1e-160, 3.3e-155):
        cfg = FieldConfig.from_mu_l(mass)
        with pytest.raises(ValueError, match=f"m = 0 row underflows float64 at mass {mass!r},"
                                             " below about 3.4e-155"):
            next(iter_coefficients([1, 0], [-1, 1], cfg))
        assert np.all(np.isfinite(next(iter_coefficients([1, -1], [-3, -1, 1, 3], cfg))[0]))
        assert next(iter_coefficients([0], [-2, 0, 2], cfg))[0][1] == 1.0 / math.sqrt(2.0)
    # the mass-0 error keeps its place and message
    with pytest.raises(ValueError, match="spinor overlap undefined at p = mass = 0"):
        next(iter_coefficients([0], [1], FieldConfig.from_mu_l(0.0)))
    # just above the bound the k = 1 entry keeps its closed limit at q = 0 to rounding
    for mass in (3.5e-155, 1e-150):
        alpha, beta = next(iter_coefficients([0], [1], FieldConfig.from_mu_l(mass)))
        limit = KAPPA_ALPHA * math.sqrt((math.pi + mass) / (2.0 * math.pi)) / 0.5
        assert abs(alpha[0] - limit) <= 1e-15 * abs(limit) and np.isfinite(beta).all()


def test_every_row_rejects_an_overlap_denominator_that_underflows():
    # at mu*L = 1 the product eps_p*eps_q*(eps_p+mu)*(eps_q+mu) scales as L**-4: subnormal from
    # L = 1e78 on; at L = 1e80 row 1 read -0.03464681, at 1e100 NaN
    ms, ks = range(-4, 5), cutoff_indices(9)
    for half_length in (1e78, 1e80, 1e100):
        cfg = FieldConfig(mass=1.0 / half_length, half_length=half_length)
        message = f"m = 1 row underflows float64 at mass {cfg.mass!r}, half-length {half_length!r}"
        with pytest.raises(ValueError, match=re.escape(message) + "$"):
            next(iter_coefficients([1, 2], ks, cfg))
        with pytest.raises(ValueError, match="m = 0 row underflows"):
            next(iter_coefficients(ms, ks, cfg))
    # at L = 1e77 every row equals its mu*L = 1 row to rounding
    want = [np.stack(row) for row in iter_coefficients(ms, ks, FieldConfig.from_mu_l(1.0))]
    cfg = FieldConfig(mass=1e-77, half_length=1e77)
    got = [np.stack(row) for row in iter_coefficients(ms, ks, cfg)]
    assert np.max(np.abs(np.array(got) - np.array(want))) <= 1e-15


def _hex(row):
    return [(z.real.hex(), z.imag.hex()) for z in row.tolist()]


@settings(max_examples=80, derandomize=True, deadline=None, database=None)
@given(mu_l=st.one_of(st.floats(1e-3, 100.0), st.just(1e76)),
       time=st.one_of(st.just(0.0), st.floats(-20.0, 20.0)),
       ms=st.lists(st.integers(-40, 40), min_size=1, max_size=5),
       ks=st.one_of(st.integers(1, 48).map(cutoff_indices),
                    st.lists(st.integers(-24, 24), min_size=1, max_size=8).map(
                        lambda h: 2 * np.array(h))))
# mu*L near 1e76 keeps the overlap denominator just inside float64; all-even ks have no odd column
@example(mu_l=1e76, time=0.0, ms=[0, 40, -3], ks=cutoff_indices(48))
@example(mu_l=1e76, time=-0.7, ms=[2, 0], ks=cutoff_indices(5))
@example(mu_l=1.0, time=0.0, ms=[0, 1, -2], ks=np.array([-4, 0, 2, 8]))
def test_rows_equal_the_per_row_kernel_by_float_hex(mu_l, time, ms, ks):
    # each row's overlaps, formed from the column terms of the whole call, keep every bit of the
    # row computed alone with its own columns
    cfg = FieldConfig.from_mu_l(mu_l, time=time)
    rows = list(iter_coefficients(ms, ks, cfg))
    assert len(rows) == len(ms)
    for m, (alpha, beta) in zip(ms, rows):
        want_alpha, want_beta = kernel_row(m, ks, cfg)
        assert _hex(alpha) == _hex(want_alpha) and _hex(beta) == _hex(want_beta)


def test_odd_column_energies_evaluated_once_per_call(monkeypatch):
    # the domain check evaluates the column energies, and the rows and weight sums reuse them
    ks = cutoff_indices(50)
    sizes = []

    def counted(p, mass):
        sizes.append(np.size(p))
        return energy(p, mass)

    monkeypatch.setattr(bogoliubov, "energy", counted)
    list(iter_coefficients([3, 0, -1, 7], ks, CFG))
    assert sum(size >= 50 for size in sizes) == 1
    sizes.clear()
    spectrum.correlation_matrix(4, 1.0, 49)
    assert sum(size >= 50 for size in sizes) == 1


def test_streamed_rows_equal_single_rows():
    # the column terms computed once per call serve every row unchanged
    ks = np.arange(-9, 12)
    ms = [3, -2, 0, 3, 5]
    cfg = FieldConfig.from_mu_l(2.0, time=0.7)
    alpha, beta = coefficient_rows(ms, ks, cfg)
    for i, (a, b) in enumerate(iter_coefficients(ms, ks, cfg)):
        single = next(iter_coefficients((ms[i],), ks, cfg))
        assert np.array_equal(a, single[0]) and np.array_equal(b, single[1])
        assert np.array_equal(alpha[i], a) and np.array_equal(beta[i], b)


def test_dump_streams_without_its_matrices():
    # one (2N+1)^2 complex matrix at N=128 alone is 1.06 MB
    tracemalloc.start()
    try:
        pair_to_csv(Region.LEFT, os.devnull, FieldConfig.from_mu_l(1.0, time=0.5), 128)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5e6


def test_dump_rejects_mass_0_then_the_cutoff_before_writing():
    # every dump holds the row m = 0, whose spinor overlaps are undefined at mass 0;
    # mass 0 is named first, even with a cutoff below 1
    massless = FieldConfig.from_mu_l(0.0)
    cases = ((massless, 2, "undefined at p = mass = 0"),
             (massless, 0, "undefined at p = mass = 0"),
             (CFG, 0, "truncation must be >= 1, got 0"),
             (CFG, -2, "truncation must be >= 1, got -2"))
    for cfg, n, message in cases:
        buf = io.StringIO()
        with pytest.raises(ValueError, match=message):
            pair_to_csv(Region.LEFT, buf, cfg, n)
        assert buf.getvalue() == ""


def test_half_only_entry_points_refuse_the_whole_interval(tmp_path):
    # a Region names one half, so the whole interval reaches no half-only entry point: the
    # enum refuses it, as the CLI's --region choices do
    with pytest.raises(ValueError, match="'whole' is not a valid Region"):
        Region("whole")
    assert [r.value for r in Region] == ["left", "right"]
    # the dump's mass-0 and cutoff checks run before the target is opened
    target = tmp_path / "left.csv"
    cases = ((FieldConfig.from_mu_l(0.0), 2, "undefined at p = mass = 0"),
             (CFG, 0, "truncation must be >= 1, got 0"))
    for cfg, n, want in cases:
        with pytest.raises(ValueError, match=want):
            pair_to_csv(Region.LEFT, str(target), cfg, n)
        assert not target.exists()


def test_csv_header_echoes_config():
    buf = io.StringIO()
    pair_to_csv(Region.RIGHT, buf, CFG, 2)
    header = buf.getvalue().splitlines()[0]
    assert header.startswith("#")
    assert "region=right" in header and "mass=1.0" in header
