import math
from dataclasses import replace

import numpy as np
import pytest

from fermisect.bogoliubov import KAPPA_ALPHA, KAPPA_BETA, cutoff_indices, iter_coefficients
from fermisect.field import (
    Branch,
    DegenerateDispersion,
    FieldConfig,
    Region,
    energy,
    mode_function,
    section_momentum,
    spinor,
    subsection_momentum,
)

CFG = FieldConfig(mass=1.0, half_length=np.pi, time=0.0)


def test_energy_values():
    assert energy(0.0, 1.0) == 1.0
    assert energy(3.0, 4.0) == 5.0
    assert energy(1.0, 0.0) == 1.0


def test_energy_even_and_bounded_below():
    p = np.linspace(-20, 20, 101)
    e = energy(p, 0.7)
    assert np.allclose(e, energy(-p, 0.7))
    assert np.all(e >= 0.7)


def test_momentum_ladders():
    assert section_momentum(0, CFG) == 0.0
    assert section_momentum(2, CFG) == pytest.approx(2.0)
    assert subsection_momentum(1, CFG) == pytest.approx(2.0)
    assert subsection_momentum(-3, CFG) == pytest.approx(-6.0)


def test_config_validation():
    with pytest.raises(ValueError):
        FieldConfig(mass=-1.0, half_length=1.0)
    with pytest.raises(ValueError):
        FieldConfig(mass=1.0, half_length=0.0)
    with pytest.raises(ValueError, match="truncation must be >= 1, got 0"):
        cutoff_indices(0)
    assert list(cutoff_indices(1)) == [-1, 0, 1]
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            FieldConfig(mass=bad, half_length=1.0)
        with pytest.raises(ValueError, match="finite"):
            FieldConfig(mass=1.0, half_length=bad)
        with pytest.raises(ValueError, match="finite"):
            FieldConfig(mass=1.0, half_length=1.0, time=bad)
        with pytest.raises(ValueError, match="finite"):
            FieldConfig.from_mu_l(bad)


def test_rest_frame_spinors():
    up = spinor(0.0, 1.0, Branch.POSITIVE)
    dn = spinor(0.0, 1.0, Branch.NEGATIVE)
    assert (up.upper, up.lower) == pytest.approx((1.0, 0.0))
    assert (dn.upper, dn.lower) == pytest.approx((0.0, 1.0))


def test_pythagorean_spinor_norm():
    u = spinor(3.0, 4.0, Branch.POSITIVE)
    assert u.upper**2 + u.lower**2 == pytest.approx(1.0, abs=1e-12)


def test_spinor_norm_and_orthogonality_on_log_grid():
    mu = 1.0
    for p in np.concatenate([-np.logspace(-3, 3, 61), np.logspace(-3, 3, 61)]):
        up = spinor(p, mu, Branch.POSITIVE)
        dn = spinor(p, mu, Branch.NEGATIVE)
        assert abs(up.upper**2 + up.lower**2 - 1.0) <= 1e-12
        assert abs(dn.upper**2 + dn.lower**2 - 1.0) <= 1e-12
        assert abs(up.dot(dn)) <= 1e-12


def test_degenerate_point_raises():
    with pytest.raises(DegenerateDispersion):
        spinor(0.0, 0.0, Branch.POSITIVE)
    # at mass 0 a row m = 0 over an odd column raises before the stream yields its first row
    massless = FieldConfig(mass=0.0, half_length=1.0)
    rows = iter_coefficients([1, 0], [-1, 1], massless)
    with pytest.raises(DegenerateDispersion, match="spinor overlap undefined at p = mass = 0"):
        next(rows)
    # with no odd column the row m = 0 needs no spinor overlap
    alpha, beta = next(iter_coefficients([0], [-2, 0, 2], massless))
    assert alpha.tolist() == [0.0, 1.0 / math.sqrt(2.0), 0.0] and not beta.any()


def test_spinor_overlap_against_explicit_dot_product():
    # independent route: build both spinors and take the 2-vector dot product; at t = 0 an odd
    # kernel entry is the overlap times its series prefactor over its resonance denominator
    ks = np.arange(-9, 10, 2)
    for mu_l, half_length, ms in [(1.0, 1.0, [-3, 0, 1, 4]), (0.2, 0.5, [-1, 0, 2]),
                                  (2.0, np.pi, [0, -4, 3]), (0.0, 1.0, [-2, 1, 3])]:
        cfg = FieldConfig.from_mu_l(mu_l, half_length)
        u_p = spinor(section_momentum(ks, cfg), cfg.mass, Branch.POSITIVE)
        for m, (alpha, beta) in zip(ms, iter_coefficients(ms, ks, cfg)):
            q = subsection_momentum(m, cfg)
            plus = alpha * ((ks - 2 * m) / 2.0) / KAPPA_ALPHA
            cross = beta * ((ks + 2 * m) / 2.0) / KAPPA_BETA
            direct = spinor(q, cfg.mass, Branch.POSITIVE).dot(u_p)
            assert np.max(np.abs(plus - direct)) <= 1e-12
            direct = spinor(q, cfg.mass, Branch.NEGATIVE).dot(u_p)
            assert np.max(np.abs(cross - direct)) <= 1e-12


def test_spinor_overlap_structure():
    def plus(q, p, mu):
        return float(spinor(q, mu, Branch.POSITIVE).dot(spinor(p, mu, Branch.POSITIVE)))

    def cross(q, p, mu):
        return float(spinor(q, mu, Branch.NEGATIVE).dot(spinor(p, mu, Branch.POSITIVE)))

    assert plus(2.0, 2.0, 0.7) == pytest.approx(1.0, abs=1e-12)
    assert plus(1.0, 2.0, 1.0) == plus(2.0, 1.0, 1.0)
    assert 0.0 < plus(1.0, 2.0, 1.0) < 1.0
    # massless opposite momenta are orthogonal helicities
    assert abs(plus(-2.0, 2.0, 0.0)) <= 1e-12
    # cross overlap vanishes at equal momenta and flips sign under q <-> p
    assert abs(cross(3.0, 3.0, 1.0)) <= 1e-12
    assert cross(1.0, 2.0, 1.0) == -cross(2.0, 1.0, 1.0)


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(400)


def _quadrature_inner(f, g, lo, hi):
    x = 0.5 * (hi - lo) * _GL_NODES + 0.5 * (hi + lo)
    w = 0.5 * (hi - lo) * _GL_WEIGHTS
    return np.sum(w * np.conj(f(x)) * g(x))


def test_whole_modes_orthonormal_under_quadrature():
    lo, hi = Region.WHOLE.interval(CFG)
    for j in range(-8, 9):
        for k in range(-8, 9):
            val = _quadrature_inner(
                lambda x: mode_function(j, Region.WHOLE, x, CFG),
                lambda x: mode_function(k, Region.WHOLE, x, CFG),
                lo, hi,
            )
            assert abs(val - (1.0 if j == k else 0.0)) <= 1e-10


def test_half_modes_orthonormal_and_mutually_orthogonal():
    lo, hi = Region.LEFT.interval(CFG)  # quadrature on the smooth support
    wlo, whi = Region.WHOLE.interval(CFG)
    for j in range(-4, 5):
        for k in range(-4, 5):
            left = _quadrature_inner(
                lambda x: mode_function(j, Region.LEFT, x, CFG),
                lambda x: mode_function(k, Region.LEFT, x, CFG),
                lo, hi,
            )
            assert abs(left - (1.0 if j == k else 0.0)) <= 1e-10
            mixed = _quadrature_inner(
                lambda x: mode_function(j, Region.LEFT, x, CFG),
                lambda x: mode_function(k, Region.RIGHT, x, CFG),
                wlo, whi,
            )
            assert abs(mixed) <= 1e-12  # disjoint supports


def test_left_mode_vanishes_on_right_half():
    x = np.linspace(CFG.half_length * 1.0001, 2 * CFG.half_length, 50)
    assert np.all(mode_function(3, Region.LEFT, x, CFG) == 0)
    x = np.linspace(0.0, CFG.half_length * 0.9999, 50)
    assert np.all(mode_function(3, Region.RIGHT, x, CFG) == 0)


def test_zero_mode_is_constant():
    x = np.linspace(0, 2 * CFG.half_length, 17)
    vals = mode_function(0, Region.WHOLE, x, CFG)
    assert np.allclose(vals, 1.0 / math.sqrt(2.0 * CFG.half_length))


def test_mode_function_time_phase():
    cfg = FieldConfig(mass=2.0, half_length=1.5, time=0.0)
    x = np.array([0.3])
    t = 0.9
    p = float(section_momentum(2, cfg))
    expected = mode_function(2, Region.WHOLE, x, cfg) * np.exp(-1j * float(energy(p, cfg.mass)) * t)
    assert np.allclose(mode_function(2, Region.WHOLE, x, replace(cfg, time=t)), expected)
